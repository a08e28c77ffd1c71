package core

import "stack2d/internal/yield"

// Batched operations. A batch applies several pushes (or pops) to one
// sub-stack with a single descriptor CAS, amortising the search and the
// coherence traffic. The window discipline is preserved exactly: a batch
// of m pushes is accepted only while count+m <= Global, i.e. it is
// indistinguishable (for the Theorem 1 bound) from m consecutive singleton
// pushes that all landed on that sub-stack — something the window already
// permits. Likewise a pop batch never takes a sub-stack below the window
// floor.

// PushBatch pushes all values; vs[len-1] ends up topmost, matching a
// sequential loop of Push calls. Values may be split across sub-stacks
// when window headroom is short. Under a local-probe placement policy the
// search honours the handle's probe plan exactly as Push does (same-socket
// slots first, DESIGN.md §7).
func (h *Handle[T]) PushBatch(vs []T) {
	// PinBatch: a batch neither opens a latency sample nor consumes a
	// countdown tick (a batch duration is not a per-op latency).
	geo := h.PinBatch()
	s := h.s
	remaining := vs
	visit := func(ss *subStack[T], global int64) Visit {
		d := ss.load()
		headroom := global - (ss.base + d.count)
		if headroom <= 0 {
			return Skip
		}
		m := min(int64(len(remaining)), headroom)
		// Chain the first m values so remaining[m-1] is topmost. The m-1
		// lower nodes come from one slab allocation and are linked in
		// place, and the new descriptor holds the topmost value over d, so
		// a combined publish costs two allocations per CAS group instead of
		// one per value, and a pop batch that takes exactly this group
		// re-installs d (the slab stays reachable until every node carved
		// from it is popped and dropped — the lifetime of a batch's lowest
		// node, which batched producer/consumer traffic turns over
		// promptly).
		slab := make([]node[T], m-1)
		top := d.head()
		for i := range slab {
			slab[i] = node[T]{value: remaining[i], next: top}
			top = &slab[i]
		}
		c := &descriptor[T]{top: node[T]{value: remaining[m-1], next: top}, count: d.count + m, below: d}
		if !ss.cas(d, c) {
			return Lost
		}
		h.Count.Pushes += uint64(m)
		remaining = remaining[m:]
		if len(remaining) == 0 {
			return Done
		}
		return More
	}
	for len(remaining) > 0 {
		global, _, done := h.Search(geo, 0, &s.global.V, visit)
		if done {
			break
		}
		yield.Fire(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowRaises++
		}
	}
	h.Unpin()
}

// PopBatch removes up to max values, returned topmost-first. It returns a
// short (possibly empty) slice when the stack runs out of items within the
// window discipline, exactly as max consecutive Pop calls would.
func (h *Handle[T]) PopBatch(max int) []T {
	if max <= 0 {
		return nil
	}
	return h.popBatchInto(make([]T, 0, max), max)
}

// popBatchInto is PopBatch appending into a caller-owned slice: the op
// buffer's prefetch refill (buffer.go) passes its standing buffer, so a
// refill that takes whole published batches allocates nothing, and one
// that splits a batch allocates only the copy of its new top item.
// It pops until len(out) reaches limit (callers pass out[:0]).
func (h *Handle[T]) popBatchInto(out []T, limit int) []T {
	geo := h.PinBatch() // see PushBatch: no sample, no countdown tick
	s := h.s
	depth := geo.Depth
	visit := func(ss *subStack[T], global int64) Visit {
		d := ss.load()
		avail := min(d.count, ss.base+d.count-max(global-depth, 0)) // see Pop
		if avail <= 0 {
			return Skip
		}
		m := min(int64(limit-len(out)), avail)
		// CAS to the state m items below d's top, and only then collect the
		// values: the detached chain is still reachable from d, so the
		// collection needs no staging buffer, and a group that takes
		// exactly one published batch re-installs the state beneath it
		// without allocating.
		if !ss.cas(d, d.without(m)) {
			return Lost
		}
		h.Count.Pops += uint64(m)
		for n, i := &d.top, int64(0); i < m; i++ {
			out = append(out, n.value)
			n = n.next
		}
		if len(out) == limit {
			return Done
		}
		return More
	}
	for len(out) < limit {
		global, _, done := h.Search(geo, 0, &s.global.V, visit)
		if done || global <= depth {
			// Done, or the window is at its floor and full coverage found
			// nothing: the stack is out of items (within the
			// empty-detection slack). A batch that took nothing is one
			// empty pop, as on the queue.
			if len(out) == 0 {
				h.Count.EmptyPops++
			}
			break
		}
		yield.Fire(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, max(global-geo.Shift, depth)) {
			h.Count.WindowLowers++
		}
	}
	h.Unpin()
	return out
}
