package stack2d

import (
	"stack2d/internal/msqueue"
	"stack2d/internal/twodqueue"
)

// Queue is a lock-free relaxed FIFO queue built with the same
// two-dimensional window technique as the Stack — the generalisation the
// paper's conclusion announces as future work. Dequeue returns an item at
// most K() positions out of FIFO order (plus one position per concurrent
// in-flight operation).
//
// Create with NewQueue; use one QueueHandle per goroutine on hot paths.
type Queue[T any] struct {
	inner *twodqueue.Queue[T]
	// opBuffer is WithOpBuffer's threshold; NewHandle arms it on every
	// handle.
	opBuffer int
}

// NewQueue builds a 2D-Queue configured by the supplied options — the
// stack's options, read the same way; without options it is tuned for
// runtime.GOMAXPROCS(0) threads (width 4P, depth 64), matching New's
// behaviour for the stack. Invalid combinations panic, since they are
// programming errors; use NewQueueWithConfig to handle errors.
func NewQueue[T any](opts ...Option) *Queue[T] {
	b := applyOptions(opts)
	q, err := NewQueueWithConfig[T](resolveConfig(b))
	if err != nil {
		panic(err)
	}
	b.applySettings(q.inner, &q.opBuffer)
	return q
}

// NewQueueWithConfig builds a 2D-Queue from an explicit configuration.
func NewQueueWithConfig[T any](cfg Config) (*Queue[T], error) {
	inner, err := twodqueue.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &Queue[T]{inner: inner}, nil
}

// QueueHandle is the per-goroutine operation context for a Queue. On a
// queue built WithOpBuffer the handle additionally batches its operations
// for combined publication (see WithOpBuffer and Flush).
type QueueHandle[T any] struct {
	h        *twodqueue.Handle[T]
	buffered bool
}

// NewHandle returns a fresh handle anchored at random sub-queues; on a
// queue built WithOpBuffer the handle comes armed with its op buffer.
func (q *Queue[T]) NewHandle() *QueueHandle[T] {
	h := &QueueHandle[T]{h: q.inner.NewHandle()}
	if q.opBuffer > 0 {
		h.h.SetOpBuffer(q.opBuffer)
		h.buffered = true
	}
	return h
}

// Enqueue adds v at the (relaxed) back of the queue (through the op buffer
// when armed).
func (h *QueueHandle[T]) Enqueue(v T) {
	if h.buffered {
		h.h.BufferedEnqueue(v)
		return
	}
	h.h.Enqueue(v)
}

// Dequeue removes and returns a value from near the front (through the op
// buffer when armed); ok is false when the queue is empty.
func (h *QueueHandle[T]) Dequeue() (v T, ok bool) {
	if h.buffered {
		return h.h.BufferedDequeue()
	}
	return h.h.Dequeue()
}

// EnqueueBatch enqueues all values in order under one geometry pin and
// one window search per placement run, amortising the per-operation
// overhead of len(vs) singleton enqueues. On a buffered handle any pending
// buffered enqueues are published first, preserving program order.
func (h *QueueHandle[T]) EnqueueBatch(vs []T) {
	if h.buffered {
		h.h.FlushOps()
	}
	h.h.EnqueueBatch(vs)
}

// DequeueBatch removes up to max values, front-first; it returns fewer
// when the queue runs out of items. On a buffered handle the values flow
// through the op buffer, so earlier prefetched values are delivered first.
func (h *QueueHandle[T]) DequeueBatch(max int) []T {
	if !h.buffered {
		return h.h.DequeueBatch(max)
	}
	out := make([]T, 0, max)
	for len(out) < max {
		v, ok := h.h.BufferedDequeue()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

// Flush publishes the handle's buffered enqueues immediately; a no-op on
// an unbuffered handle. Call before quiescing, before Queue.Drain, or
// before abandoning the handle.
func (h *QueueHandle[T]) Flush() {
	if h.buffered {
		h.h.FlushOps()
	}
}

// Len returns the total number of stored items; exact when quiescent.
func (q *Queue[T]) Len() int { return q.inner.Len() }

// K returns the queue's sequential k-out-of-order relaxation bound,
// (2·depth + shift)·(width − 1) — the corrected Theorem-1 constant shared
// with the stack, exact for every legal shift (DESIGN.md §2); concurrent
// executions add one position per in-flight operation.
func (q *Queue[T]) K() int64 { return q.inner.Config().K() }

// Config returns the queue's active configuration — under live
// reconfiguration (AdaptiveQueue, or a running controller) the geometry
// current at the call, which may immediately be superseded.
func (q *Queue[T]) Config() Config { return q.inner.Config() }

// SetObserver installs (or, with nil, removes) the queue's structural
// observer at runtime; see WithObserver and StructObserver.
func (q *Queue[T]) SetObserver(o StructObserver) { q.inner.SetObserver(o) }

// Drain removes and returns all items; teardown helper, not concurrent.
// Buffered handles (WithOpBuffer) must Flush first — Drain only sees
// published items.
func (q *Queue[T]) Drain() []T { return q.inner.Drain() }

// StrictQueue is a strict (k = 0) lock-free FIFO queue — the classic
// Michael–Scott queue — for callers needing exact ordering or a baseline.
// Create with NewStrictQueue.
type StrictQueue[T any] struct {
	inner *msqueue.Queue[T]
}

// NewStrictQueue returns an empty strict FIFO queue.
func NewStrictQueue[T any]() *StrictQueue[T] {
	return &StrictQueue[T]{inner: msqueue.New[T]()}
}

// Enqueue appends v at the back.
func (q *StrictQueue[T]) Enqueue(v T) { q.inner.Enqueue(v) }

// Dequeue removes and returns the exact front value; ok is false on empty.
func (q *StrictQueue[T]) Dequeue() (v T, ok bool) { return q.inner.Dequeue() }

// Len returns the approximate number of items.
func (q *StrictQueue[T]) Len() int { return q.inner.Len() }
