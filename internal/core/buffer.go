package core

// Per-handle operation buffering: the combined-publication fast path
// (DESIGN.md §11). An armed handle batches its pushes locally and
// publishes them through its structure's batch push when the buffer
// fills, and refills a local pop prefetch through the batch pop — so the
// uncontended steady state touches shared cache lines once per bufCap
// operations instead of once per operation. Buffering is opt-in per handle
// (SetOpBuffer) and invisible to the singleton paths, which stay exactly
// as fast as before.
//
// The buffer state and its mechanics — arming, the epoch flush, publishing
// pending pushes, serving the prefetch, the resident count — live here in
// the window shell, once for both structures. What differs is policy, kept
// with each structure: the stack serves a pop from its newest pending push
// (LIFO elision) and hands undelivered prefetch back in order-restoring
// reverse (Handle.returnPrefetch below); the queue never elides, flushes
// on a pop miss, and returns its prefetch at the back (internal/twodqueue).
//
// Semantics: a buffered operation takes effect (linearizes) at its publish
// or serve point, not at its API call. The displacement this adds to the
// realised k-out-of-order distance is budgeted by the checkers'
// BufferAllowance term (seqspec; DESIGN.md §11 gives the accounting
// argument and its fairness premise). Buffered-but-unpublished items are
// counted by the structures' Len via the handle registry, so sizing never
// sees phantom emptiness; Drain and teardown require the owner to FlushOps
// first, since only the owning goroutine may touch a handle's buffers. A
// handle dropped with residents loses them; AbandonedItems counts them.

// BufferHooks are a structure's batch steps, which the shell's op buffer
// calls: Publish is the batch push the pending pushes flush through,
// Refill the batch pop that refills the prefetch (appending up to max
// values to out), and Return hands undelivered prefetched values (in
// delivery order, never empty) back to the structure when buffering is
// disarmed.
type BufferHooks[T any] struct {
	Publish func(vs []T)
	Refill  func(out []T, max int) []T
	Return  func(undelivered []T)
}

// SetOpBuffer arms (n >= 1) or disarms (n <= 0) operation buffering on the
// handle with a combined-publication threshold of n operations.
// Disarming — and re-arming with a different threshold — first flushes
// pending pushes and hands undelivered prefetched values back to the
// structure. Owner-goroutine only, like every handle method.
func (h *WindowHandle[T, S]) SetOpBuffer(n int) {
	if h.bufCap > 0 {
		h.FlushOps()
		if h.prefStart < len(h.prefetch) {
			h.buf.Return(h.prefetch[h.prefStart:])
		}
		clear(h.prefetch)
		h.prefetch = h.prefetch[:0]
		h.prefStart = 0
		h.syncBufCount()
	}
	if n <= 0 {
		h.bufCap = 0
		h.pending = nil
		h.prefetch = nil
		return
	}
	h.bufCap = n
	h.pending = make([]T, 0, n)
	h.prefetch = make([]T, 0, n)
	h.prefStart = 0
	h.bufEpoch = h.w.geo.Load().Epoch
}

// OpBuffer returns the armed combined-publication threshold (0 when
// buffering is off).
func (h *WindowHandle[T, S]) OpBuffer() int { return h.bufCap }

// BufferedCounts reports the handle's private residents: pending pushes
// not yet published, and prefetched values not yet delivered.
// Owner-goroutine only; foreign readers get the sum via Len.
func (h *WindowHandle[T, S]) BufferedCounts() (pending, undelivered int) {
	return len(h.pending), len(h.prefetch) - h.prefStart
}

// syncBufCount republishes the atomically readable resident total after
// any buffer mutation; one uncontended store to the handle's own mirror.
func (h *WindowHandle[T, S]) syncBufCount() {
	h.shared.residents.Store(int64(len(h.pending) + len(h.prefetch) - h.prefStart))
}

// Buffering reports whether the op buffer is armed. When it is, it first
// reconciles the buffers with a geometry change: pending pushes buffered
// under a superseded geometry are published into the new one before the
// buffered operation proceeds, so a reconfiguration is never followed by
// an arbitrarily stale combined publish. Prefetched values were already
// popped from the structure (under the old windows) and are unaffected by
// the swap; they keep serving.
func (h *WindowHandle[T, S]) Buffering() bool {
	if h.bufCap <= 0 {
		return false
	}
	if e := h.w.geo.Load().Epoch; e != h.bufEpoch {
		h.bufEpoch = e
		if len(h.pending) > 0 {
			h.flushPending()
		}
	}
	return true
}

// flushPending publishes the pending pushes as one combined batch.
func (h *WindowHandle[T, S]) flushPending() {
	h.buf.Publish(h.pending)
	clear(h.pending)
	h.pending = h.pending[:0]
	h.syncBufCount()
}

// FlushOps publishes all pending buffered pushes immediately. It does not
// disturb the pop prefetch: prefetched values were already removed from
// the structure and remain deliverable. Call before quiescing, draining
// the structure, or abandoning the handle (an abandoned handle's buffered
// values are lost, exactly like any popped-but-unprocessed value held by
// its goroutine; AbandonedItems counts them). No-op when nothing is
// pending.
func (h *WindowHandle[T, S]) FlushOps() {
	if len(h.pending) > 0 {
		h.flushPending()
	}
}

// Stash adds v to the pending pushes and publishes them — together with
// every pending neighbour — as one combined batch once bufCap values are
// pending. It reports false, buffering nothing, while the op buffer is
// disarmed: the caller then runs its singleton push.
func (h *WindowHandle[T, S]) Stash(v T) bool {
	if !h.Buffering() {
		return false
	}
	h.pending = append(h.pending, v)
	if len(h.pending) >= h.bufCap {
		h.flushPending()
	} else {
		h.syncBufCount()
	}
	return true
}

// ServePrefetch delivers the next prefetched value, first refilling an
// exhausted prefetch with one combined batch pop of up to bufCap values.
// ok is false only when that refill came back empty. Call it on an armed
// buffer (Buffering).
func (h *WindowHandle[T, S]) ServePrefetch() (v T, ok bool) {
	if h.prefStart >= len(h.prefetch) {
		h.prefetch = h.buf.Refill(h.prefetch[:0], h.bufCap)
		h.prefStart = 0
		if len(h.prefetch) == 0 {
			h.syncBufCount()
			return v, false
		}
	}
	v = h.prefetch[h.prefStart]
	var zero T
	h.prefetch[h.prefStart] = zero
	h.prefStart++
	h.syncBufCount()
	return v, true
}

// BufferedPush adds v through the operation buffer (Stash). With
// buffering disarmed it is exactly Push.
func (h *Handle[T]) BufferedPush(v T) {
	if !h.Stash(v) {
		h.Push(v)
	}
}

// BufferedPop removes a value through the operation buffer. The newest
// pending push is served first (the push/pop pair linearizes back to
// back — LIFO elision), then the prefetch (ServePrefetch). ok is false
// only when the prefetch refill itself came back empty — the same
// observation Pop's empty verdict rests on, since by then no pending push
// exists either. With buffering disarmed it is exactly Pop.
func (h *Handle[T]) BufferedPop() (v T, ok bool) {
	if !h.Buffering() {
		return h.Pop()
	}
	if n := len(h.pending); n > 0 {
		v = h.pending[n-1]
		var zero T
		h.pending[n-1] = zero
		h.pending = h.pending[:n-1]
		h.syncBufCount()
		return v, true
	}
	return h.ServePrefetch()
}

// returnPrefetch hands undelivered prefetched values back to the stack,
// newest-delivery-first so the re-push restores their relative order: the
// values arrive topmost-first, so pushing them in reverse makes the former
// topmost surface first again.
func (h *Handle[T]) returnPrefetch(undelivered []T) {
	for i := len(undelivered) - 1; i >= 0; i-- {
		h.Push(undelivered[i])
	}
}
