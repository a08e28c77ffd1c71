// Package ksegment implements the k-segment stack — the k-out-of-order
// relaxed stack of Henzinger, Kirsch, Payer, Sezgin and Sokolova
// ("Quantitative relaxation of concurrent data structures", POPL 2013) —
// the "k-segment" baseline of the paper's Figures 1 and 2.
//
// The stack is a linked list of fixed-size memory segments. All traffic
// goes through the topmost segment: a Push claims any empty slot in it
// (adding a fresh segment on top when it is full), a Pop takes any occupied
// slot (unlinking the segment when it is empty and not the last). Because a
// Pop may return any of the up-to-s items of the top segment, the structure
// is k-out-of-order with k = s−1 in sequential executions, where s is the
// segment size.
//
// Ordering property that the bound relies on: pushes only ever land in the
// top segment, so every item in a segment is newer than every item in the
// segments below it.
//
// Concurrency protocol (insert-then-verify): a Pop that finds the top
// segment empty first marks it deleted, rescans for stragglers, and only
// then unlinks it; a Push that inserted into a segment re-checks the deleted
// flag and retracts its item (retrying elsewhere) if the segment was
// condemned meanwhile. A retraction that fails means a concurrent Pop
// already took the item, which is a completed handoff.
package ksegment

import (
	"fmt"
	"sync/atomic"

	"stack2d/internal/core"
	"stack2d/internal/pad"
	"stack2d/internal/xrand"
)

// cell boxes one stored value; cells are unique per push, so slot CAS is
// ABA-free under the garbage collector.
type cell[T any] struct {
	value T
}

// segment is one fixed-size block of slots.
type segment[T any] struct {
	slots   []atomic.Pointer[cell[T]]
	next    *segment[T] // immutable after publication
	deleted atomic.Bool // set before unlinking; gates new insertions
}

func newSegment[T any](size int, next *segment[T]) *segment[T] {
	return &segment[T]{slots: make([]atomic.Pointer[cell[T]], size), next: next}
}

// Config tunes the k-segment stack.
type Config struct {
	// SegmentSize is the number of slots per segment (the paper's k). The
	// sequential relaxation bound is SegmentSize − 1.
	SegmentSize int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.SegmentSize < 1 {
		return fmt.Errorf("ksegment: SegmentSize must be >= 1, got %d", c.SegmentSize)
	}
	return nil
}

// K returns the sequential k-out-of-order bound of this configuration.
func (c Config) K() int64 { return int64(c.SegmentSize - 1) }

// Stack is a lock-free k-segment stack. Create with New; obtain one Handle
// per goroutine.
type Stack[T any] struct {
	cfg  Config
	top  atomic.Pointer[segment[T]]
	seed pad.Uint64Line
}

// New returns an empty k-segment stack.
func New[T any](cfg Config) (*Stack[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Stack[T]{cfg: cfg}
	s.top.Store(newSegment[T](cfg.SegmentSize, nil))
	return s, nil
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

// Len walks the segment chain and counts occupied slots. Approximate under
// concurrency; exact when quiescent. O(items) — diagnostics only.
func (s *Stack[T]) Len() int {
	n := 0
	for seg := s.top.Load(); seg != nil; seg = seg.next {
		for i := range seg.slots {
			if seg.slots[i].Load() != nil {
				n++
			}
		}
	}
	return n
}

// Segments reports the current chain length; diagnostics only.
func (s *Stack[T]) Segments() int {
	n := 0
	for seg := s.top.Load(); seg != nil; seg = seg.next {
		n++
	}
	return n
}

// Drain removes all items through one handle's pops, into a slice of
// Len's capacity; teardown/testing helper (single-threaded).
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

// Handle is the per-goroutine operation context. Not safe for concurrent
// use of the same handle.
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
// disables, the default): slot inspections count as Probes, failed slot
// and top CASes as CASFailures, whole-loop retries as Restarts. Operation
// outcomes are counted by the backend adapter in internal/relax, not
// here. Owner-goroutine only.
func (h *Handle[T]) SetStats(st *core.OpStats) { h.stats = st }

// Push adds v to the stack.
func (h *Handle[T]) Push(v T) {
	s := h.s
	size := s.cfg.SegmentSize
	c := &cell[T]{value: v}
	for {
		t := s.top.Load()
		if t.deleted.Load() {
			// Condemned top: do not insert (our item could be stranded).
			// Prepend a fresh segment above it; poppers will salvage and
			// unlink the condemned one underneath.
			ns := newSegment[T](size, t)
			ns.slots[h.rng.Intn(size)].Store(c)
			if s.top.CompareAndSwap(t, ns) {
				return
			}
			if h.stats != nil {
				h.stats.CASFailures++
				h.stats.Restarts++
			}
			continue
		}
		// Probe for an empty slot from a random start.
		start := h.rng.Intn(size)
		placed := -1
		for j := 0; j < size; j++ {
			i := start + j
			if i >= size {
				i -= size
			}
			if h.stats != nil {
				h.stats.Probes++
			}
			if t.slots[i].Load() == nil && t.slots[i].CompareAndSwap(nil, c) {
				placed = i
				break
			}
		}
		if placed < 0 {
			// Segment full: grow the chain, carrying the item in the new
			// segment so the push completes with the same CAS.
			ns := newSegment[T](size, t)
			ns.slots[h.rng.Intn(size)].Store(c)
			if s.top.CompareAndSwap(t, ns) {
				return
			}
			if h.stats != nil {
				h.stats.CASFailures++
				h.stats.Restarts++
			}
			continue
		}
		// Insert-then-verify: if the segment was condemned after our CAS,
		// retract and retry; a failed retraction means a Pop already took
		// the item, i.e. the push has happened.
		if !t.deleted.Load() {
			return
		}
		if !t.slots[placed].CompareAndSwap(c, nil) {
			return
		}
	}
}

// Pop removes and returns an item from the top segment; ok is false when
// the stack was observed empty.
func (h *Handle[T]) Pop() (v T, ok bool) {
	s := h.s
	for {
		t := s.top.Load()
		if c, ok := h.scanPop(t); ok {
			return c, true
		}
		if t.next == nil {
			// Last segment and the scan found nothing. Confirm the chain
			// did not grow meanwhile; if it did, retry.
			if s.top.Load() == t {
				var zero T
				return zero, false
			}
			continue
		}
		// Condemn, rescan for stragglers, then unlink. A straggler found by
		// the rescan is returned with the segment left in place: other
		// pushes may have landed in it before the condemnation too, and
		// unlinking it here would strand them. Condemned, it takes no new
		// items, so a later pop empties and unlinks it.
		t.deleted.Store(true)
		if c, ok := h.scanPop(t); ok {
			return c, true
		}
		s.top.CompareAndSwap(t, t.next)
	}
}

// scanPop probes every slot of seg from a random start, claiming the first
// occupied one.
func (h *Handle[T]) scanPop(seg *segment[T]) (v T, ok bool) {
	size := len(seg.slots)
	start := h.rng.Intn(size)
	for j := 0; j < size; j++ {
		i := start + j
		if i >= size {
			i -= size
		}
		if h.stats != nil {
			h.stats.Probes++
		}
		if c := seg.slots[i].Load(); c != nil {
			if seg.slots[i].CompareAndSwap(c, nil) {
				return c.value, true
			}
			if h.stats != nil {
				h.stats.CASFailures++
			}
		}
	}
	var zero T
	return zero, false
}
