package core

import "stack2d/internal/yield"

// Handle carries the per-thread state of the 2D-Stack algorithm: the
// window shell's per-handle half (WindowHandle: the locality anchor
// Last[0], a private RNG for hop selection, work counters, the epoch pin,
// the latency sampler and the op buffer) plus the stack it operates on.
// Obtain one per goroutine with NewHandle.
//
// A Handle is NOT safe for concurrent use; the Stack is, across handles.
type Handle[T any] struct {
	WindowHandle[T, subStack[T]]
	s *Stack[T]
	// ring holds the descriptors this handle's pops removed, oldest
	// first, each with the era read after its removing CAS; the oldest
	// are reusable once their grace period has passed (reclaim.go).
	ring Ring[*descriptor[T]]
}

// NewHandle returns an operation handle anchored at a random sub-stack and
// registers it with the stack for reconfiguration quiescence tracking and
// stats aggregation (Window.Register: the registry holds the handle
// weakly, so the convenience API's handle pool does not grow it without
// bound). One handle per goroutine is the intended pattern.
func (s *Stack[T]) NewHandle() *Handle[T] {
	h := &Handle[T]{s: s}
	s.Register(&h.WindowHandle, 1, BufferHooks[T]{Publish: h.PushBatch, Refill: h.popBatchInto, Return: h.returnPrefetch})
	return h
}

// SetAnchor forces the handle's next search to start at sub-stack idx,
// overriding the locality anchor of the most recent success. With
// RandomHops = 0 and no concurrent operations the next Push or Pop then
// lands on idx whenever idx is window-valid — the property the
// deterministic director's exact trace replay relies on to drive the real
// stack through a seqspec explorer trace (sub-stack choices included).
// Out-of-range indices are re-anchored randomly by the next pin, exactly
// like a dangling anchor after a width shrink. Owner-goroutine only, like
// every Handle method; diagnostics and directed replay, not a tuning knob.
func (h *Handle[T]) SetAnchor(idx int) {
	if idx < 0 {
		idx = 0
	}
	h.Last[0] = idx
}

// Push adds v to the stack. It is lock-free: it retries until its CAS
// succeeds, which can only be delayed by other operations succeeding. The
// window search (Search) looks for a sub-stack below the ceiling Global;
// when a full coverage pass finds every sub-stack at the ceiling, Push
// raises the window and searches again.
func (h *Handle[T]) Push(v T) {
	// The new state is taken once, before the pin — a descriptor this
	// handle retired whose grace period has passed, or a fresh one — and
	// holds v; each attempt lays it over the state it expects to replace
	// (DESIGN.md §3).
	c := h.reuse(true)
	c.top.value = v
	geo := h.PinOp()
	s := h.s
	visit := func(ss *subStack[T], global int64) Visit {
		d := ss.load()
		if ss.base+d.count >= global {
			return Skip
		}
		c.top.next, c.count, c.below = d.head(), d.count+1, d
		if !ss.cas(d, c) {
			return Lost
		}
		h.Count.Pushes++
		return Done
	}
	for {
		global, _, done := h.Search(geo, 0, &s.global.V, visit)
		if done {
			h.Unpin()
			return
		}
		// Every sub-stack is at the ceiling: raise the window. Whether our
		// CAS or a competitor's wins, Global has changed; search again.
		yield.Fire(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowRaises++
		}
	}
}

// Pop removes and returns a value within the relaxation window. ok is false
// only when the stack is empty: the window is at its floor (validity
// threshold zero) and a full coverage pass saw every sub-stack at count
// zero.
func (h *Handle[T]) Pop() (v T, ok bool) { return h.pop(true) }

// TryPop is Pop without the window move, for callers that prefer an
// immediate miss over window maintenance (the public stack2d
// Handle.TryPop): after one search that finds nothing at the current
// ceiling it reports ok=false, which means "nothing in the current
// window", not necessarily that the stack is empty.
func (h *Handle[T]) TryPop() (v T, ok bool) { return h.pop(false) }

// pop is the body of Pop and TryPop; move says whether a search that finds
// nothing lowers the window and searches again (or reports empty at the
// floor) or reports a miss.
func (h *Handle[T]) pop(move bool) (v T, ok bool) {
	geo := h.PinOp()
	s := h.s
	depth := geo.Depth
	visit := func(ss *subStack[T], global int64) Visit {
		// Pop-valid: items above the floor global − depth. Steady state
		// guarantees global >= depth; a racing depth change can briefly
		// violate it, so the floor is clamped at zero (count > 0 then
		// still implies a top item).
		d := ss.load()
		if d.count == 0 || ss.base+d.count <= max(global-depth, 0) {
			return Skip
		}
		// Valid for pop: re-install the state beneath d's top item, and
		// retire d once it is out.
		next := h.beneath(d)
		if !ss.cas(d, next) {
			h.lost(d, next)
			return Lost
		}
		v = d.top.value
		h.retire(d)
		h.Count.Pops++
		return Done
	}
	for {
		global, _, done := h.Search(geo, 0, &s.global.V, visit)
		if done {
			h.Unpin()
			return v, true
		}
		if !move {
			h.Unpin()
			return v, false
		}
		if global <= depth {
			// Window at its floor: the coverage pass proved every
			// sub-stack held zero items at this Global. Report empty.
			h.Count.EmptyPops++
			h.Unpin()
			return v, false
		}
		// Lower the window (floored at depth so the validity threshold
		// never goes negative) and search again.
		yield.Fire(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, max(global-geo.Shift, depth)) {
			h.Count.WindowLowers++
		}
	}
}
