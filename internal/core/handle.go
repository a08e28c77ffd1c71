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
// succeeds, which can only be delayed by other operations succeeding.
//
// Search structure (paper §3): start from the last successful sub-stack;
// hop randomly up to RandomHops times, then probe round-robin. Only the
// round-robin probes count toward the "failed on all sub-stacks" verdict —
// a full round of `width` consecutive invalid probes guarantees every
// sub-stack was inspected at the current Global before the window is
// raised. A failed CAS (contention) triggers a random hop and restarts the
// count; any observed Global change restarts the search outright.
func (h *Handle[T]) Push(v T) {
	geo := h.PinOp()
	s := h.s
	width := geo.Width
	// Under a local-probe placement policy the search walks a per-socket
	// permutation (same-socket slots first) instead of plain index order;
	// ord is nil otherwise and the pre-placement path runs unchanged. Both
	// walks cover all width slots, so the coverage discipline — and with
	// it the Theorem 1 bound — is identical (DESIGN.md §7).
	ord, pos, localN := h.Probe(geo)
	sockIdx := h.SockIdx(geo)
	// The new state is allocated once, holding v; each attempt lays it
	// over the state it expects to replace (DESIGN.md §3).
	c := &descriptor[T]{top: node[T]{value: v}}
	for {
		global := s.global.V.Load()
		idx := h.Last[0]
		at := 0 // position of idx in ord (local-probe walks only)
		if ord != nil {
			at = pos[idx]
		}
		probes := 0 // consecutive round-robin validation failures
		randLeft := geo.Hops
		for probes < width {
			// Track Global on every hop; restart the search on any change.
			if g := s.global.V.Load(); g != global {
				global = g
				probes = 0
				randLeft = geo.Hops
				h.Count.Restarts++
			}
			ss := geo.Subs[idx]
			d := ss.load()
			h.Count.Probes++
			if ss.base+d.count < global {
				// Valid for push: attempt the descriptor swap.
				c.top.next, c.count, c.below = d.head(), d.count+1, d
				if ss.cas(d, c) {
					h.Last[0] = idx
					h.Count.Pushes++
					h.Unpin()
					return
				}
				// Contention: the colliding operation made progress; hop to
				// a random sub-stack and restart the coverage count.
				h.Count.CASFailures++
				h.Count.SocketCAS[sockIdx]++
				yield.Fire(yield.PointCASFail)
				idx = HopIdx(h.RNG, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				probes = 0
				randLeft = 0 // stay in round-robin from the new anchor
				continue
			}
			// Invalid (at the window ceiling): hop on.
			if randLeft > 0 {
				randLeft--
				h.Count.RandomHops++
				idx = HopIdx(h.RNG, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				continue // exploratory hop; does not count toward coverage
			}
			probes++
			if ord == nil {
				idx++
				if idx == width {
					idx = 0
				}
			} else {
				at++
				if at == width {
					at = 0
				}
				idx = ord[at]
			}
		}
		// A full round-robin pass found every sub-stack at the ceiling:
		// raise the window. Whether our CAS or a competitor's wins, Global
		// has changed; re-read and retry with a fresh search count.
		yield.Fire(yield.PointWindowMove)
		if s.global.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowRaises++
		}
	}
}

// Pop removes and returns a value within the relaxation window. ok is false
// only when the stack is empty: the window is at its floor (validity
// threshold zero) and a full round-robin pass saw every sub-stack at count
// zero.
func (h *Handle[T]) Pop() (v T, ok bool) {
	geo := h.PinOp()
	s := h.s
	width := geo.Width
	depth := geo.Depth
	ord, pos, localN := h.Probe(geo) // see Push
	sockIdx := h.SockIdx(geo)
	for {
		global := s.global.V.Load()
		// Steady state guarantees global >= depth; a racing depth change
		// can briefly violate it, so clamp the floor at zero (count > 0
		// then still implies top != nil).
		floor := global - depth
		if floor < 0 {
			floor = 0
		}
		idx := h.Last[0]
		at := 0
		if ord != nil {
			at = pos[idx]
		}
		probes := 0
		randLeft := geo.Hops
		for probes < width {
			if g := s.global.V.Load(); g != global {
				global = g
				floor = global - depth
				if floor < 0 {
					floor = 0
				}
				probes = 0
				randLeft = geo.Hops
				h.Count.Restarts++
			}
			ss := geo.Subs[idx]
			d := ss.load()
			h.Count.Probes++
			if d.count > 0 && ss.base+d.count > floor {
				// Valid for pop: re-install the state beneath d's top item.
				if ss.cas(d, d.without(1)) {
					h.Last[0] = idx
					h.Count.Pops++
					h.Unpin()
					return d.top.value, true
				}
				h.Count.CASFailures++
				h.Count.SocketCAS[sockIdx]++
				yield.Fire(yield.PointCASFail)
				idx = HopIdx(h.RNG, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				probes = 0
				randLeft = 0
				continue
			}
			if randLeft > 0 {
				randLeft--
				h.Count.RandomHops++
				idx = HopIdx(h.RNG, width, ord, localN)
				if ord != nil {
					at = pos[idx]
				}
				continue
			}
			probes++
			if ord == nil {
				idx++
				if idx == width {
					idx = 0
				}
			} else {
				at++
				if at == width {
					at = 0
				}
				idx = ord[at]
			}
		}
		if global <= depth {
			// Window at its floor: the coverage pass proved every
			// sub-stack held zero items at this Global. Report empty.
			h.Count.EmptyPops++
			h.Unpin()
			var zero T
			return zero, false
		}
		// Lower the window (floored at depth so the validity threshold
		// never goes negative) and retry with a fresh search count.
		yield.Fire(yield.PointWindowMove)
		next := global - geo.Shift
		if next < depth {
			next = depth
		}
		if s.global.V.CompareAndSwap(global, next) {
			h.Count.WindowLowers++
		}
	}
}

// TryPop performs a single search pass without moving the window. It exists
// for latency-sensitive callers (examples/taskpool) that prefer an immediate
// miss over window maintenance; ok=false means "nothing in the current
// window", not necessarily that the stack is empty.
func (h *Handle[T]) TryPop() (v T, ok bool) {
	geo := h.PinOp()
	s := h.s
	width := geo.Width
	ord, pos, _ := h.Probe(geo) // single pass, same-socket slots first
	sockIdx := h.SockIdx(geo)
	global := s.global.V.Load()
	floor := global - geo.Depth
	if floor < 0 {
		floor = 0
	}
	idx := h.Last[0]
	at := 0
	if ord != nil {
		at = pos[idx]
	}
	for probes := 0; probes < width; probes++ {
		ss := geo.Subs[idx]
		d := ss.load()
		h.Count.Probes++
		if d.count > 0 && ss.base+d.count > floor {
			if ss.cas(d, d.without(1)) {
				h.Last[0] = idx
				h.Count.Pops++
				h.Unpin()
				return d.top.value, true
			}
			h.Count.CASFailures++
			h.Count.SocketCAS[sockIdx]++
			yield.Fire(yield.PointCASFail)
		}
		if ord == nil {
			idx++
			if idx == width {
				idx = 0
			}
		} else {
			at++
			if at == width {
				at = 0
			}
			idx = ord[at]
		}
	}
	h.Unpin()
	var zero T
	return zero, false
}
