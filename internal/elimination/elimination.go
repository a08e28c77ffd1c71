// Package elimination implements a lock-free elimination back-off stack in
// the style of Hendler, Shavit and Yerushalmi ("A scalable lock-free stack
// algorithm", JPDC 2010) — the "elimination" baseline of the paper's
// Figure 2.
//
// A central Treiber stack carries the common case. When an operation's CAS
// on the central stack fails (contention), the operation diverts to a
// collision array where a concurrent Push/Pop pair can *eliminate*: the pop
// takes the push's value directly and both complete without touching the
// central stack at all. Eliminated pairs are linearizable (the push is
// ordered immediately before the pop at the moment of the exchange), so the
// stack remains strictly LIFO.
//
// Adaptation note: we use the asymmetric variant in which pushers advertise
// offers and poppers consume them. It preserves the defining behaviour the
// paper measures — symmetric workloads eliminate aggressively, asymmetric
// workloads degrade toward a plain Treiber stack (ablation A5 exercises
// exactly this).
package elimination

import (
	"runtime"
	"sync/atomic"

	"stack2d/internal/core"
	"stack2d/internal/pad"
	"stack2d/internal/treiber"
	"stack2d/internal/xrand"
)

// Offer lifecycle states.
const (
	offerWaiting   int32 = iota // parked, available to poppers
	offerTaken                  // consumed by a popper
	offerWithdrawn              // owner timed out and reclaimed it
)

// offer is a parked push advertised in the collision array.
type offer[T any] struct {
	value T
	state atomic.Int32
}

// Config tunes the collision layer.
type Config struct {
	// Slots is the size of the collision array. The original scales it
	// with the number of threads; a handful per thread works well.
	Slots int
	// Spins is how many yield-loop iterations a parked push waits for a
	// popper before withdrawing to retry centrally.
	Spins int
}

// DefaultConfig sizes the collision layer for p expected threads.
func DefaultConfig(p int) Config {
	if p < 1 {
		p = 1
	}
	return Config{Slots: p, Spins: 32}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Slots < 1 {
		return errSlots
	}
	if c.Spins < 1 {
		return errSpins
	}
	return nil
}

var (
	errSlots = errorString("elimination: Slots must be >= 1")
	errSpins = errorString("elimination: Spins must be >= 1")
)

// errorString is a trivial constant-friendly error type.
type errorString string

func (e errorString) Error() string { return string(e) }

// Stack is a lock-free elimination back-off stack. Create with New; obtain
// one Handle per goroutine.
type Stack[T any] struct {
	cfg     Config
	central treiber.Stack[T]
	slots   []pad.PointerLine[offer[T]]
	seed    pad.Uint64Line
}

// New returns an empty elimination stack.
func New[T any](cfg Config) (*Stack[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stack[T]{cfg: cfg, slots: make([]pad.PointerLine[offer[T]], cfg.Slots)}, nil
}

// MustNew is New that panics on config error.
func MustNew[T any](cfg Config) *Stack[T] {
	s, err := New[T](cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the approximate central-stack population (parked offers are
// logically in-flight pushes, not stack contents).
func (s *Stack[T]) Len() int { return s.central.Len() }

// Drain empties the central stack (one detaching swap, top-first);
// teardown and migration helper.
func (s *Stack[T]) Drain() []T { return s.central.Drain() }

// Handle is the per-goroutine operation context (RNG for slot selection).
// Not safe for concurrent use of the same handle.
type Handle[T any] struct {
	s     *Stack[T]
	rng   *xrand.State
	stats *core.OpStats
}

// NewHandle returns an operation handle.
func (s *Stack[T]) NewHandle() *Handle[T] {
	return &Handle[T]{s: s, rng: xrand.New(s.seed.V.Add(0x9e3779b97f4a7c15))}
}

// SetStats points the handle's internal-signal counters at st (nil
// disables, the default): failed central CASes count as CASFailures,
// collision-slot visits as Probes. Operation outcomes (Pushes/Pops/
// EmptyPops) are deliberately not counted here — the backend adapter in
// internal/relax owns those, so totals are not double-counted. st must be
// owned by the handle's goroutine; owner-goroutine only.
func (h *Handle[T]) SetStats(st *core.OpStats) { h.stats = st }

// Push adds v to the stack.
func (h *Handle[T]) Push(v T) {
	s := h.s
	for {
		if s.central.TryPush(v) {
			return
		}
		if h.stats != nil {
			h.stats.CASFailures++
		}
		if h.tryEliminatePush(v) {
			return
		}
	}
}

// PushBatch pushes every value of vs onto the central stack as one run
// (treiber.Stack.PushBatch: one allocation, vs[len-1] on top), which is
// what a loop of Push over vs means. A batch does not divert to the
// collision array, whose exchanges carry one value each: it retries the
// central CAS, and each failure counts as a CASFailure, as Push's do.
func (h *Handle[T]) PushBatch(vs []T) {
	f := h.s.central.PushBatch(vs)
	if h.stats != nil {
		h.stats.CASFailures += f
	}
}

// Pop removes and returns the top value; ok is false if the stack was
// observed empty (parked pushes are concurrent, so missing them is
// linearizable).
func (h *Handle[T]) Pop() (v T, ok bool) {
	s := h.s
	for {
		v, ok, contended := s.central.TryPop()
		if ok {
			return v, true
		}
		if contended && h.stats != nil {
			h.stats.CASFailures++
		}
		if v, ok := h.tryEliminatePop(); ok {
			return v, true
		}
		if !contended {
			// Central stack observed empty and no partner was parked.
			var zero T
			return zero, false
		}
	}
}

// tryEliminatePush parks v in a random collision slot and waits briefly
// for a popper. It reports whether the value was handed off.
func (h *Handle[T]) tryEliminatePush(v T) bool {
	s := h.s
	i := h.rng.Intn(len(s.slots))
	if h.stats != nil {
		h.stats.Probes++
	}
	of := &offer[T]{value: v}
	if !s.slots[i].P.CompareAndSwap(nil, of) {
		return false // slot busy; caller retries centrally
	}
	for spin := 0; spin < s.cfg.Spins; spin++ {
		if of.state.Load() == offerTaken {
			s.slots[i].P.CompareAndSwap(of, nil)
			return true
		}
		runtime.Gosched()
	}
	if of.state.CompareAndSwap(offerWaiting, offerWithdrawn) {
		s.slots[i].P.CompareAndSwap(of, nil)
		return false
	}
	// Lost the withdraw race: a popper took it between our last check and
	// the CAS. That is a successful elimination.
	s.slots[i].P.CompareAndSwap(of, nil)
	return true
}

// tryEliminatePop scans one random collision slot for a waiting pusher and
// claims its value if possible.
func (h *Handle[T]) tryEliminatePop() (v T, ok bool) {
	s := h.s
	i := h.rng.Intn(len(s.slots))
	if h.stats != nil {
		h.stats.Probes++
	}
	if of := s.slots[i].P.Load(); of != nil && of.state.CompareAndSwap(offerWaiting, offerTaken) {
		s.slots[i].P.CompareAndSwap(of, nil)
		return of.value, true
	}
	var zero T
	return zero, false
}
