package engine

// Engine-level operation buffering: the switcher's slice of the combined-
// publication fast path (DESIGN.md §11). An armed handle retains its pushes
// locally and publishes the whole batch as one PushBatch under ONE slot
// pin — one active-pointer load, one draining check and one inner-handle
// lookup amortised over bufCap operations, and the backend's own batch
// push where it has one — instead of paying the swap-safety protocol per
// push.
//
// The buffer is swap-safe by construction: pending values live with the
// handle, not with any backend, so a hot swap can neither strand them in a
// retired backend nor double-migrate them — they publish into whichever
// backend is active at flush time. This is also why the engine buffer has
// no pop prefetch: batch-popping values out of a backend would park them
// outside the swap protocol's drain, and relax.Handle has no batch pop to
// amortise the refill with anyway. Pops serve the newest pending push
// (LIFO elision, as in core) and otherwise go straight through.
//
// Semantics: buffered pushes linearize at publish, so histories recorded
// through buffered engine handles carry the checkers' BufferAllowance term
// on top of KBound + SwapDisplacementBound. With only pending residency
// and delivery staleness to cover (no prefetch), seqspec.BufferAllowance's
// three-term budget over-covers the engine buffer. Switcher.Len does not
// see pending values (unlike core.Stack.Len); flush before sizing, and —
// as everywhere — FlushOps before quiescing, draining, or abandoning the
// handle.

// SetOpBuffer arms (n >= 1) or disarms (n <= 0) operation buffering on the
// handle with a combined-publication threshold of n pushes. Any pending
// values are published first. Owner-goroutine only, like every Handle
// method.
func (h *Handle[T]) SetOpBuffer(n int) {
	h.FlushOps()
	if n <= 0 {
		h.bufCap = 0
		h.pending = nil
		return
	}
	h.bufCap = n
	h.pending = make([]T, 0, n)
}

// OpBuffer returns the armed combined-publication threshold (0 when
// buffering is off).
func (h *Handle[T]) OpBuffer() int { return h.bufCap }

// BufferedCounts reports the handle's private pending pushes (the engine
// buffer holds no undelivered pops). Owner-goroutine only.
func (h *Handle[T]) BufferedCounts() (pending int) { return len(h.pending) }

// FlushOps publishes all pending buffered pushes immediately, as one
// PushBatch under one slot pin. No-op when nothing is pending.
func (h *Handle[T]) FlushOps() {
	if len(h.pending) == 0 {
		return
	}
	h.PushBatch(h.pending)
	clear(h.pending)
	h.pending = h.pending[:0]
}

// BufferedPush adds v through the operation buffer: retained locally,
// published with every pending neighbour once bufCap values are pending.
// With buffering disarmed it is exactly Push.
func (h *Handle[T]) BufferedPush(v T) {
	if h.bufCap <= 0 {
		h.Push(v)
		return
	}
	h.pending = append(h.pending, v)
	if len(h.pending) >= h.bufCap {
		h.FlushOps()
	}
}

// BufferedPop removes a value through the operation buffer: the newest
// pending push is served first (the pair linearizes back to back, saving
// both publications); otherwise the pop goes to the active backend. With
// buffering disarmed it is exactly Pop.
func (h *Handle[T]) BufferedPop() (v T, ok bool) {
	if h.bufCap <= 0 {
		return h.Pop()
	}
	if n := len(h.pending); n > 0 {
		v = h.pending[n-1]
		var zero T
		h.pending[n-1] = zero
		h.pending = h.pending[:n-1]
		return v, true
	}
	return h.Pop()
}
