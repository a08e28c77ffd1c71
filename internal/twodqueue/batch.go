package twodqueue

import (
	"stack2d/internal/core"
	"stack2d/internal/yield"
)

// Batched operations, the queue twin of internal/core's batch.go. A batch
// applies runs of sub-queue operations under one geometry pin and one
// window search — the combined-publication payoff: a run of m values on
// one sub-queue costs one pin and one probe instead of m of each. Each
// value is still counted by its own sub-queue step (the window counters
// are the sub-queue's own per-end counts), so a batch leaves no operation
// uncounted past its link. The window discipline is preserved by an
// upfront headroom check: a run of m is attempted only while
// counter+m <= Global, indistinguishable (for the relaxation bound) from m
// consecutive singletons that all landed there.

// EnqueueBatch enqueues all values in order; vs[0] is the frontmost of the
// batch. Values may be split across sub-queues when window headroom is
// short, exactly as a loop of Enqueue calls could be.
func (h *Handle[T]) EnqueueBatch(vs []T) {
	geo := h.PinBatch() // no sample, no countdown tick (see core.WindowHandle.PinBatch)
	q := h.q
	remaining := vs
	// n holds remaining[0] once built: an attempt that fails leaves it
	// unlinked, and the next attempt links the same node.
	var n *node[T]
	visit := func(sub *subQueue[T], global int64) core.Visit {
		headroom := global - sub.enqs()
		if headroom <= 0 {
			return core.Skip
		}
		m := min(int64(len(remaining)), headroom)
		done := int64(0)
		for done < m {
			if n == nil {
				n = h.carve(remaining[done])
			}
			if !sub.q.TryEnqueue(n) {
				break
			}
			n = nil
			done++
		}
		if done == 0 {
			return core.Lost // contention with zero progress
		}
		h.Count.Pushes += uint64(done)
		remaining = remaining[done:]
		if len(remaining) == 0 {
			return core.Done
		}
		return core.More
	}
	for len(remaining) > 0 {
		global, _, done := h.Search(geo, enq, &q.globalEnq.V, visit)
		if done {
			break
		}
		yield.Fire(yield.PointWindowMove)
		if q.globalEnq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowRaises++
		}
	}
	h.Unpin()
}

// DequeueBatch removes up to max values, returned front-first. It returns
// a short (possibly empty) slice when every sub-queue is observed empty
// within the window discipline, exactly as max consecutive Dequeue calls
// would.
func (h *Handle[T]) DequeueBatch(max int) []T {
	if max <= 0 {
		return nil
	}
	return h.dequeueBatchInto(make([]T, 0, max), max)
}

// dequeueBatchInto is DequeueBatch appending into a caller-owned slice:
// the op buffer's prefetch refill (buffer.go) passes its standing buffer
// so a steady-state refill allocates nothing beyond the sub-queue's own
// node recycling. It dequeues until len(out) reaches limit (callers pass
// out[:0]).
func (h *Handle[T]) dequeueBatchInto(out []T, limit int) []T {
	geo := h.PinBatch() // see EnqueueBatch
	q := h.q
	visit := func(sub *subQueue[T], global int64) core.Visit {
		avail := global - sub.deqs()
		if avail <= 0 {
			return heldIfNonEmpty(sub)
		}
		m := min(int64(limit-len(out)), avail)
		done := int64(0)
		contended := false
		for done < m {
			old, front, cont := sub.q.TryUnlink()
			if front == nil {
				contended = cont
				break
			}
			out = append(out, h.take(old, front))
			done++
		}
		switch {
		case done > 0:
			h.Count.Pops += uint64(done)
			if len(out) == limit {
				return core.Done
			}
			return core.More
		case contended:
			return core.Lost // another dequeuer beat us with zero progress
		}
		return core.Skip // valid but empty: a coverage probe
	}
	for len(out) < limit {
		global, held, done := h.Search(geo, deq, &q.globalDeq.V, visit)
		if done {
			break
		}
		if !held {
			// Full coverage saw only empty sub-queues (any non-empty one was
			// dequeue-valid and yielded nothing): the queue is out of items.
			if len(out) == 0 {
				h.Count.EmptyPops++
			}
			break
		}
		// Items exist beyond the current window: raise it and retry.
		yield.Fire(yield.PointWindowMove)
		if q.globalDeq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowLowers++
		}
	}
	h.Unpin()
	return out
}
