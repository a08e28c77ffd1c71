// Package msqueue implements the classic Michael–Scott lock-free FIFO queue
// (Michael & Scott, PODC 1996). It serves the 2D-Queue extension (see
// internal/twodqueue) the same way internal/treiber serves the 2D-Stack: as
// the strict baseline and as the sub-structure building block.
//
// The queue is a singly linked list with a dummy head node. Enqueue links a
// node after the current tail and swings the tail pointer (helping a lagging
// tail forward when needed); Dequeue advances the head past the dummy.
// For this package's own methods ABA is precluded by the garbage
// collector, as in the other list-based structures of this module: they
// allocate every node and never reuse one. TryEnqueue and TryUnlink hand
// node ownership to the caller instead, and a caller that reuses the
// nodes TryUnlink hands back (the 2D-Queue's slabs, internal/twodqueue)
// must itself keep a node from reuse while another operation may still
// hold it.
//
// The queue counts its two ends separately: Enqueued and Dequeued are
// monotonic counts of completed operations, each incremented by the
// operation that linked or unlinked a node, once its CAS has succeeded.
// They are the 2D-Queue's window counters, so the header (both ends and
// both counts) is padded to one cache line, and sub-queues allocated side
// by side never share one. Len is their difference: exact when quiescent,
// and never negative under concurrency, where a dequeue may unlink (and
// count) a node before its enqueuer has counted it.
package msqueue

import (
	"sync/atomic"

	"stack2d/internal/pad"
)

// Node is one cell of the queue's list. Enqueue builds its own;
// TryEnqueue links one its caller built — a zero Node whose Value it has
// set — so a caller that retries elsewhere after a failed attempt builds
// the node once.
type Node[T any] struct {
	value T
	next  atomic.Pointer[Node[T]]
}

// Value returns the node's value cell, for the party that owns the node:
// its builder before TryEnqueue links it, and the caller whose TryUnlink
// returned it as the front.
func (n *Node[T]) Value() *T { return &n.value }

// Queue is a lock-free FIFO queue. Create with New; it must not be copied.
// Its size is one cache line, which the allocator's 64-byte size class
// aligns, so queues allocated side by side never share a line.
type Queue[T any] struct {
	head     atomic.Pointer[Node[T]] // points at the dummy; head.next is the front
	tail     atomic.Pointer[Node[T]]
	enqueued atomic.Int64                  // completed enqueues
	dequeued atomic.Int64                  // completed dequeues
	_        [pad.CacheLineSize - 4*8]byte // pads the four 8-byte words above to one line
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	dummy := &Node[T]{}
	q.head.Store(dummy)
	q.tail.Store(dummy)
	return q
}

// Enqueue appends v at the back of the queue.
func (q *Queue[T]) Enqueue(v T) {
	n := &Node[T]{value: v}
	for {
		tail := q.tail.Load()
		next := tail.next.Load()
		if tail != q.tail.Load() {
			continue // tail moved under us; re-read
		}
		if next != nil {
			// Tail is lagging: help swing it and retry.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if tail.next.CompareAndSwap(nil, n) {
			q.tail.CompareAndSwap(tail, n) // best effort; others will help
			q.enqueued.Add(1)
			return
		}
	}
}

// Dequeue removes and returns the front value; ok is false if the queue was
// observed empty.
func (q *Queue[T]) Dequeue() (v T, ok bool) {
	for {
		head := q.head.Load()
		tail := q.tail.Load()
		next := head.next.Load()
		if head != q.head.Load() {
			continue
		}
		if next == nil {
			var zero T
			return zero, false // empty (head == tail, no next)
		}
		if head == tail {
			// Tail lagging behind a non-empty list: help it.
			q.tail.CompareAndSwap(tail, next)
			continue
		}
		if q.head.CompareAndSwap(head, next) {
			q.dequeued.Add(1)
			// next is now the dummy; clear its value so the queue does not
			// pin the dequeued item for the GC until the following dequeue.
			// Safe: only the CAS winner reads next.value.
			v = next.value
			var zero T
			next.value = zero
			return v, true
		}
	}
}

// TryUnlink attempts a single CAS round to unlink the front node. On
// success it returns the old dummy, which has left the list, and front,
// the node whose value was the front item and which is now the dummy: the
// caller moves that value out through front.Value() and clears it (only
// the CAS winner may touch it), so the queue does not keep the item
// reachable until the following dequeue. front is nil when the queue was
// observed empty or the CAS lost; contended distinguishes the two,
// mirroring treiber.Stack.TryPop for the window search in the 2D-Queue.
func (q *Queue[T]) TryUnlink() (old, front *Node[T], contended bool) {
	head := q.head.Load()
	tail := q.tail.Load()
	next := head.next.Load()
	if next == nil {
		return nil, nil, false
	}
	if head == tail {
		q.tail.CompareAndSwap(tail, next)
	}
	if q.head.CompareAndSwap(head, next) {
		q.dequeued.Add(1)
		return head, next, false
	}
	return nil, nil, true
}

// TryEnqueue attempts a single CAS round to link n — a node with a nil
// next pointer, not yet linked — at the back. It reports whether it
// succeeded; a false return means another enqueuer interfered (or the
// tail was lagging and was helped forward), and leaves n unlinked for the
// caller's next attempt, here or on another queue. It exists for the 2D-Queue's window search,
// which treats a failed attempt as a contention signal and hops to
// another sub-queue instead of spinning here.
func (q *Queue[T]) TryEnqueue(n *Node[T]) bool {
	tail := q.tail.Load()
	next := tail.next.Load()
	if next != nil {
		q.tail.CompareAndSwap(tail, next)
		return false
	}
	if tail.next.CompareAndSwap(nil, n) {
		q.tail.CompareAndSwap(tail, n)
		q.enqueued.Add(1)
		return true
	}
	return false
}

// Empty reports whether the queue was observed empty.
func (q *Queue[T]) Empty() bool {
	head := q.head.Load()
	return head.next.Load() == nil
}

// Enqueued returns the number of completed enqueues.
func (q *Queue[T]) Enqueued() int64 { return q.enqueued.Load() }

// Dequeued returns the number of completed dequeues.
func (q *Queue[T]) Dequeued() int64 { return q.dequeued.Load() }

// Len returns the approximate number of items: exact when quiescent, never
// negative. Dequeued is read first, so a concurrent enqueue can only raise
// the result; the clamp covers a dequeue counted before its enqueue.
func (q *Queue[T]) Len() int {
	d := q.dequeued.Load()
	return int(max(q.enqueued.Load()-d, 0))
}

// Drain removes all items front-first, into a slice of Len's capacity;
// teardown/testing helper.
func (q *Queue[T]) Drain() []T {
	out := make([]T, 0, q.Len())
	for {
		v, ok := q.Dequeue()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
