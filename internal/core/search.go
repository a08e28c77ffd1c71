package core

import (
	"sync/atomic"

	"stack2d/internal/yield"
)

// Visit is a search probe's verdict on one slot: what the operation's
// visitor found there and did (WindowHandle.Search).
type Visit uint8

const (
	// Skip: the slot is invalid for the operation, or valid but empty. The
	// probe counts toward coverage.
	Skip Visit = iota
	// Held is Skip for a slot that holds items outside the window (the
	// queue's dequeue end): a pass that saw one must move the window rather
	// than report empty.
	Held
	// Lost: the operation's atomic step lost a race on the slot.
	Lost
	// More: the operation made progress on the slot, and a batch still has
	// work; the search stays on the slot.
	More
	// Done: the operation finished.
	Done
)

// Search is the window search both structures run (paper §3), written
// once. It starts at the locality anchor Last[end], takes up to geo.Hops
// random hops, then walks round-robin — along the handle's probe plan
// under a local-probe placement policy (DESIGN.md §7), in index order
// otherwise; both walks cover all width slots. visit is called on every
// probe with the slot and the ceiling the pass runs under; it holds the
// operation's validity test and atomic step, and its verdict steers the
// walk:
//
//   - Skip and Held count toward coverage, except during the random hops.
//   - Lost counts a CAS failure against the handle's socket, fires
//     yield.PointCASFail, and hops to a random slot with no further random
//     hops: the coverage count starts over from there.
//   - More and Done move the anchor Last[end] to the slot; More probes it
//     again, Done returns.
//
// Any change of *ceiling between probes restarts the pass (a fresh hop
// budget, coverage count and Held verdict). Search returns done once visit
// says Done, or after width consecutive round-robin Skip or Held probes at
// an unchanged ceiling — every slot was inspected at global — with held
// reporting whether that pass saw a Held slot. Moving the window or
// reporting empty is the caller's.
func (h *WindowHandle[T, S]) Search(geo *Geometry[S], end int, ceiling *atomic.Int64, visit func(s *S, global int64) Visit) (global int64, held, done bool) {
	width := geo.Width
	ord, pos, localN := h.probe(geo)
	global = ceiling.Load()
	idx := h.Last[end]
	at := 0 // position of idx in ord (local-probe walks only)
	if ord != nil {
		at = pos[idx]
	}
	probes := 0 // consecutive round-robin Skip/Held probes
	randLeft := geo.Hops
	for probes < width {
		if g := ceiling.Load(); g != global {
			global = g
			h.Count.Restarts++
			probes, randLeft, held = 0, geo.Hops, false
		}
		h.Count.Probes++
		switch visit(geo.Subs[idx], global) {
		case Done:
			h.Last[end] = idx
			return global, held, true
		case More:
			h.Last[end] = idx
			continue
		case Lost:
			// The colliding operation made progress: hop away and restart
			// the coverage count, staying in round-robin from there.
			h.Count.CASFailures++
			h.Count.SocketCAS[h.sockIdx(geo)]++
			yield.Fire(yield.PointCASFail)
			idx = hopIdx(h.rng, width, ord, localN)
			if ord != nil {
				at = pos[idx]
			}
			probes, randLeft = 0, 0
			continue
		case Held:
			held = true
		}
		if randLeft > 0 {
			// Exploratory hop; does not count toward coverage.
			randLeft--
			h.Count.RandomHops++
			idx = hopIdx(h.rng, width, ord, localN)
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
	return global, held, false
}
