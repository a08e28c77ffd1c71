package twodqueue

// Per-handle operation buffering (DESIGN.md §11): the buffer state and its
// mechanics are the window shell's (core.WindowHandle: SetOpBuffer,
// FlushOps, BufferedCounts, the epoch flush, Stash, ServePrefetch). An
// armed handle batches its enqueues locally and publishes them through
// EnqueueBatch when the buffer fills, and refills a local dequeue prefetch
// through DequeueBatch. This file is the queue's buffer policy, which
// differs from the stack's in two FIFO-specific ways:
//
//   - BufferedDequeue never serves pending enqueues. On a stack the newest
//     pending item is exactly what Pop would return; on a queue it is the
//     farthest item from the front, so eliding would realise the worst
//     possible displacement. Instead, a dequeue that finds the structure
//     empty while pushes are pending flushes them and retries the refill
//     once — the pop-miss flush — so a producer/consumer pair on one
//     handle can never deadlock against its own buffer.
//
//   - Disarming with undelivered prefetched values re-enqueues them at the
//     back: they were already dequeued from the front, and a queue has no
//     order-restoring return path. The one-time displacement is bounded by
//     the queue length at the disarm; deliver the prefetch through
//     BufferedDequeue first when order matters.

// BufferedEnqueue adds v through the operation buffer (core's Stash: the
// value is retained locally and published — together with every pending
// neighbour — as one combined EnqueueBatch once bufCap values are
// pending). With buffering disarmed it is exactly Enqueue.
func (h *Handle[T]) BufferedEnqueue(v T) {
	if !h.Stash(v) {
		h.Enqueue(v)
	}
}

// BufferedDequeue removes a value through the operation buffer: the
// prefetch serves front-first; an exhausted prefetch is refilled with one
// combined DequeueBatch of up to bufCap values. Pending enqueues are never
// served directly (see the package note) — but an empty refill with
// enqueues pending flushes them and refills once more, so ok is false only
// when the structure and the handle's own buffer are both out of items.
// With buffering disarmed it is exactly Dequeue.
func (h *Handle[T]) BufferedDequeue() (v T, ok bool) {
	if !h.Buffering() {
		return h.Dequeue()
	}
	if v, ok = h.ServePrefetch(); ok {
		return v, true
	}
	if pending, _ := h.BufferedCounts(); pending == 0 {
		return v, false
	}
	h.FlushOps() // pop-miss flush: our own enqueues are the supply
	return h.ServePrefetch()
}

// returnPrefetch re-enqueues undelivered prefetched values at the back, in
// their delivery order; disarm-only (see the package note).
func (h *Handle[T]) returnPrefetch(undelivered []T) {
	h.EnqueueBatch(undelivered)
}
