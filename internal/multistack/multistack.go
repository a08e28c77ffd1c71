// Package multistack implements the one-dimensional (horizontal-only)
// distributed stack designs the paper compares against: an array of
// independent Treiber sub-stacks with an operation scheduler on top.
//
// Three schedulers from the paper's Section 1 are provided:
//
//   - Random: every operation picks a sub-stack uniformly at random
//     ("random" in Figure 2; cf. distributed queues, Haas et al. CF'13).
//   - RandomC2: power of two choices ("random-c2"; cf. MultiQueues, Rihani
//     et al. SPAA'15) — sample two sub-stacks, push to the shorter, pop
//     from the longer, which both balances load and biases pops toward
//     fresher items.
//   - RoundRobin: each handle cycles deterministically through the
//     sub-stacks ("k-robin"). On contention it keeps retrying the same
//     sub-stack — exactly the behaviour the paper contrasts with the
//     2D-Stack's contention-avoiding hop.
//
// None of these maintains a window: relaxation is bounded only by the
// scheduling discipline (round-robin) or unbounded in adversarial schedules
// (random), which is why the paper's Figure 1 admits only k-robin among
// them.
package multistack

import (
	"fmt"

	"stack2d/internal/core"
	"stack2d/internal/pad"
	"stack2d/internal/treiber"
	"stack2d/internal/xrand"
)

// Policy selects the operation scheduler.
type Policy int

// Available scheduling policies.
const (
	Random Policy = iota
	RandomC2
	RoundRobin
)

func (p Policy) String() string {
	switch p {
	case Random:
		return "random"
	case RandomC2:
		return "random-c2"
	case RoundRobin:
		return "k-robin"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config tunes a distributed multi-stack.
type Config struct {
	// Width is the number of Treiber sub-stacks.
	Width int
	// Policy is the operation scheduler.
	Policy Policy
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Width < 1 {
		return fmt.Errorf("multistack: Width must be >= 1, got %d", c.Width)
	}
	switch c.Policy {
	case Random, RandomC2, RoundRobin:
		return nil
	default:
		return fmt.Errorf("multistack: unknown policy %d", int(c.Policy))
	}
}

// paddedStack keeps each sub-stack's hot atomics on separate cache lines.
type paddedStack[T any] struct {
	st treiber.Stack[T]
	_  [pad.CacheLineSize - 16]byte
}

// Stack is a horizontally distributed stack. Create with New; obtain one
// Handle per goroutine.
type Stack[T any] struct {
	cfg  Config
	subs []paddedStack[T]
	seed pad.Uint64Line
}

// New returns an empty multi-stack.
func New[T any](cfg Config) (*Stack[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stack[T]{cfg: cfg, subs: make([]paddedStack[T], cfg.Width)}, nil
}

// MustNew is New that panics on config error.
func MustNew[T any](cfg Config) *Stack[T] {
	s, err := New[T](cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the stack's configuration.
func (s *Stack[T]) Config() Config { return s.cfg }

// Len sums the sub-stack counters; approximate under concurrency.
func (s *Stack[T]) Len() int {
	n := 0
	for i := range s.subs {
		n += s.subs[i].st.Len()
	}
	return n
}

// SubCounts snapshots the per-sub-stack populations; diagnostics.
func (s *Stack[T]) SubCounts() []int {
	out := make([]int, len(s.subs))
	for i := range s.subs {
		out[i] = s.subs[i].st.Len()
	}
	return out
}

// Drain removes all items through one handle's Pop loop, into a slice of
// Len's capacity, so they come out in an order the policy's Pop realises:
// the pop order relax.Backend.Drain promises (for k-robin, concatenating
// the sub-stacks instead would sink each sub-stack's items below the next
// one's). Teardown and migration helper (single-threaded).
func (s *Stack[T]) Drain() []T {
	h := s.NewHandle()
	out := make([]T, 0, s.Len())
	for {
		v, ok := h.Pop()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Handle is the per-goroutine operation context: RNG for the random
// policies, cursor for round-robin.
type Handle[T any] struct {
	s     *Stack[T]
	rng   *xrand.State
	pos   int
	stats *core.OpStats
}

// NewHandle returns an operation handle starting at a random cursor.
func (s *Stack[T]) NewHandle() *Handle[T] {
	rng := xrand.New(s.seed.V.Add(0x9e3779b97f4a7c15))
	return &Handle[T]{s: s, rng: rng, pos: rng.Intn(s.cfg.Width)}
}

// SetStats points the handle's internal-signal counters at st (nil
// disables, the default): sub-stack visits and scheduler samples count as
// Probes, failed sub-stack CASes as CASFailures. Operation outcomes are
// counted by the backend adapter in internal/relax, not here.
// Owner-goroutine only.
func (h *Handle[T]) SetStats(st *core.OpStats) { h.stats = st }

// pushSub pushes v onto sub-stack i. The instrumented path retries
// TryPush on the same sub-stack — operationally identical to Push (no
// policy hops away from contention here) but with the failures visible.
func (h *Handle[T]) pushSub(i int, v T) {
	st := &h.s.subs[i].st
	if h.stats == nil {
		st.Push(v)
		return
	}
	for !st.TryPush(v) {
		h.stats.CASFailures++
	}
}

// popSub pops from sub-stack i, retrying interference exactly like
// treiber's Pop; the instrumented path counts the visit and the failures.
func (h *Handle[T]) popSub(i int) (v T, ok bool) {
	st := &h.s.subs[i].st
	if h.stats == nil {
		return st.Pop()
	}
	h.stats.Probes++
	for {
		v, ok, contended := st.TryPop()
		if ok {
			return v, true
		}
		if !contended {
			var zero T
			return zero, false
		}
		h.stats.CASFailures++
	}
}

// Push adds v to a sub-stack chosen by the configured policy.
func (h *Handle[T]) Push(v T) {
	s := h.s
	switch s.cfg.Policy {
	case Random:
		h.pushSub(h.rng.Intn(len(s.subs)), v)
	case RandomC2:
		i, j := h.twoChoices()
		// Push to the shorter of the two samples (load balancing).
		if s.subs[j].st.Len() < s.subs[i].st.Len() {
			i = j
		}
		h.pushSub(i, v)
	case RoundRobin:
		h.pos++
		if h.pos >= len(s.subs) {
			h.pos = 0
		}
		// Treiber Push retries its CAS on the same sub-stack: k-robin does
		// not hop away from contention, which is the behaviour Figure 1
		// penalises.
		h.pushSub(h.pos, v)
	}
}

// Pop removes a value using the configured policy; ok is false when every
// sub-stack was observed empty in one pass.
func (h *Handle[T]) Pop() (v T, ok bool) {
	s := h.s
	width := len(s.subs)
	var start int
	switch s.cfg.Policy {
	case Random:
		start = h.rng.Intn(width)
	case RandomC2:
		i, j := h.twoChoices()
		// Pop from the longer of the two samples.
		if s.subs[j].st.Len() > s.subs[i].st.Len() {
			i = j
		}
		start = i
	case RoundRobin:
		h.pos++
		if h.pos >= width {
			h.pos = 0
		}
		start = h.pos
	}
	// Try the chosen sub-stack, then sweep the rest so that an unlucky
	// choice does not report a non-empty stack as empty.
	for probe := 0; probe < width; probe++ {
		i := start + probe
		if i >= width {
			i -= width
		}
		if v, ok := h.popSub(i); ok {
			if s.cfg.Policy == RoundRobin {
				h.pos = i
			}
			return v, true
		}
	}
	var zero T
	return zero, false
}

// twoChoices samples two distinct sub-stack indexes (equal only when
// width == 1).
func (h *Handle[T]) twoChoices() (int, int) {
	w := len(h.s.subs)
	if h.stats != nil {
		h.stats.Probes += 2 // the two scheduler samples
	}
	i := h.rng.Intn(w)
	if w == 1 {
		return i, i
	}
	j := h.rng.Intn(w - 1)
	if j >= i {
		j++
	}
	return i, j
}
