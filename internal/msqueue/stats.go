package msqueue

import "stack2d/internal/core"

// Instrumented operation variants, mirroring treiber's PushStats/PopStats.
// The plain Enqueue/Dequeue stay counter-free (allocation pins in
// stats_test.go); the *Stats variants are what the backend adapter in
// internal/relax calls. OpStats speaks the stack vocabulary, so an
// enqueue counts as a Push and a dequeue as a Pop/EmptyPop — the
// controller's signals are operation-shaped, not order-shaped.
//
// Counter mapping: a failed link/head CAS is a CASFailure (another
// operation won the spot); a lagging-tail help and an inconsistent
// two-load snapshot are Restarts (the loop started over without losing a
// CAS of its own).

// EnqueueStats is Enqueue with operation accounting. st must not be shared
// across goroutines.
func (q *Queue[T]) EnqueueStats(v T, st *core.OpStats) {
	n := &Node[T]{value: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			st.Restarts++
			continue
		}
		if next != nil {
			q.tail.CompareAndSwap(tail, next)
			st.Restarts++
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n)
			q.enqueued.Add(1)
			st.Pushes++
			return
		}
		st.CASFailures++
	}
}

// DequeueStats is Dequeue with operation accounting. st must not be shared
// across goroutines.
func (q *Queue[T]) DequeueStats(st *core.OpStats) (v T, ok bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			st.Restarts++
			continue
		}
		if next == nil {
			st.EmptyPops++
			var zero T
			return zero, false
		}
		if head == tail {
			q.tail.CompareAndSwap(tail, next)
			st.Restarts++
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			q.dequeued.Add(1)
			// As in Dequeue: move the value out of the new dummy so the
			// queue does not pin it for the GC. Safe: only the CAS winner
			// reads next.value.
			v = next.value
			var zero T
			next.value = zero
			st.Pops++
			return v, true
		}
		st.CASFailures++
	}
}
