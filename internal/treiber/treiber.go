// Package treiber implements the classic lock-free Treiber stack
// (R. K. Treiber, "Systems Programming: Coping with Parallelism", IBM 1986).
//
// It serves two roles in this repository: it is the strict-LIFO baseline
// ("treiber" in the paper's Figures 1–2) and the building block for the
// horizontally distributed baselines in internal/multistack.
//
// The implementation is a singly linked list whose head is swung by
// compare-and-swap. ABA is a non-issue under the Go garbage collector: a
// node cannot be recycled while any thread still holds a reference to it,
// which is strictly stronger than the counted-pointer scheme the original
// relies on.
package treiber

import "sync/atomic"

type node[T any] struct {
	value T
	next  *node[T]
}

// Stack is a lock-free LIFO stack. The zero value is an empty stack ready
// for use. A Stack must not be copied after first use.
type Stack[T any] struct {
	top    atomic.Pointer[node[T]]
	length atomic.Int64
}

// New returns an empty stack. Provided for symmetry with the other
// implementations; &Stack[T]{} is equivalent.
func New[T any]() *Stack[T] { return &Stack[T]{} }

// Push adds v to the top of the stack. It never fails; under contention it
// retries the CAS until it succeeds (lock-free: some push always succeeds).
func (s *Stack[T]) Push(v T) {
	n := &node[T]{value: v}
	for {
		old := s.top.Load()
		n.next = old
		if s.top.CompareAndSwap(old, n) {
			s.length.Add(1)
			return
		}
	}
}

// Pop removes and returns the top value. ok is false if the stack was
// observed empty.
//
// Unlike the Michael–Scott queue's dummy-node scheme (see
// msqueue.Queue.Dequeue), the winning CAS unlinks the popped node from the
// structure entirely, so the stack retains no reference to the popped value
// — there is no GC-pinning analogue to clear here (regression-guarded by
// TestPoppedValueIsCollectable).
func (s *Stack[T]) Pop() (v T, ok bool) {
	for {
		old := s.top.Load()
		if old == nil {
			var zero T
			return zero, false
		}
		if s.top.CompareAndSwap(old, old.next) {
			s.length.Add(-1)
			return old.value, true
		}
	}
}

// PushBatch pushes every value of vs as one run: vs[len-1] ends on top
// and the run is contiguous, exactly as after a loop of Push over vs with
// no other operation in between. The nodes come from one slab linked in
// place, so the batch costs one allocation and, uncontended, one CAS. The
// slab stays reachable until its lowest node is popped (Go keeps a whole
// allocation alive while any pointer into it is live), so popped values of
// a batch are retained until the batch's bottom item leaves. It returns
// the number of failed head CASes, for the callers that count contention.
func (s *Stack[T]) PushBatch(vs []T) (casFailures uint64) {
	if len(vs) == 0 {
		return 0
	}
	slab := make([]node[T], len(vs))
	slab[0].value = vs[0]
	for i := 1; i < len(slab); i++ {
		slab[i] = node[T]{value: vs[i], next: &slab[i-1]}
	}
	top := &slab[len(slab)-1]
	for {
		old := s.top.Load()
		slab[0].next = old
		if s.top.CompareAndSwap(old, top) {
			s.length.Add(int64(len(vs)))
			return casFailures
		}
		casFailures++
	}
}

// TryPush attempts a single CAS to add v. It reports whether it succeeded;
// callers that own back-off or elimination policies (the elimination stack,
// the 2D-Stack hop loop) use this to detect contention rather than spin.
func (s *Stack[T]) TryPush(v T) bool {
	n := &node[T]{value: v, next: s.top.Load()}
	if s.top.CompareAndSwap(n.next, n) {
		s.length.Add(1)
		return true
	}
	return false
}

// TryPop attempts a single CAS to remove the top value. contended reports
// whether the failure was due to interference (true) as opposed to an empty
// stack (false, with ok also false).
func (s *Stack[T]) TryPop() (v T, ok bool, contended bool) {
	old := s.top.Load()
	if old == nil {
		var zero T
		return zero, false, false
	}
	if s.top.CompareAndSwap(old, old.next) {
		s.length.Add(-1)
		return old.value, true, false
	}
	var zero T
	return zero, false, true
}

// Peek returns the current top value without removing it. The value may be
// stale by the time the caller uses it; it exists for diagnostics and for
// schedulers (random-c2) that sample sub-stack state.
func (s *Stack[T]) Peek() (v T, ok bool) {
	if n := s.top.Load(); n != nil {
		return n.value, true
	}
	var zero T
	return zero, false
}

// Len returns the approximate number of items. The counter is maintained
// with relaxed ordering relative to the list itself, so concurrent readers
// may observe values off by the number of in-flight operations; it is exact
// in quiescent states.
func (s *Stack[T]) Len() int { return int(s.length.Load()) }

// Empty reports whether the stack was observed empty.
func (s *Stack[T]) Empty() bool { return s.top.Load() == nil }

// Drain removes all items, returning them top-first. It detaches the
// whole list with one swap of the head, so it is atomic: a concurrent
// push lands either in the returned slice or in the emptied stack. The
// slice is sized by Len, which is exact when the stack is quiescent.
func (s *Stack[T]) Drain() []T {
	out := make([]T, 0, max(s.Len(), 0))
	for n := s.top.Swap(nil); n != nil; n = n.next {
		out = append(out, n.value)
	}
	s.length.Add(-int64(len(out)))
	return out
}
