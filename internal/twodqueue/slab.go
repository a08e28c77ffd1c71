package twodqueue

import (
	"sync/atomic"

	"stack2d/internal/msqueue"
)

// Node recycling on the era pin (DESIGN.md §3). A handle carves its
// enqueues' Michael–Scott nodes in ascending addresses from its current
// slab, so each sub-queue's list keeps the allocation order a dequeuer's
// prefetch follows. A dequeue that unlinks a node as the old dummy
// decrements the node's slab's live count; the one that takes it to 0
// retires the whole slab into its handle's ring (core.Ring), tagged with
// the era read after its CAS. An enqueue that needs a new slab tries one
// era step and takes the oldest retired slab if it is ripe
// (core.WindowHandle.Ripe), and allocates only when none is. A handle
// that only enqueues therefore allocates one slab per slabNodes
// enqueues, and a handle that only dequeues retires slabs it never
// carves.
//
// The nodes msqueue allocates itself — each sub-queue's first dummy and
// the shrink handoff's (handoffStranded) — carry no slab and go to the
// GC, as do the nodes the handoff unlinks from the dropped sub-queues: a
// slab with such a node never reaches 0.

const (
	// slabNodes is the nodes per slab: 63 nodes of 24 B (an 8-byte value,
	// its slab pointer and the next pointer) plus the live count fill the
	// 1536-B size class.
	slabNodes = 63
	// slabRing bounds each handle's ring of retired slabs (a power of
	// two): at most this many slabs, about 24 KB, wait there for reuse.
	slabRing = 16
)

// elem is what a 2D-Queue node holds: the item, and the slab the node was
// carved from (nil for the nodes msqueue allocates).
type elem[T any] struct {
	v T
	s *slab[T]
}

// node is one cell of a sub-queue's list.
type node[T any] = msqueue.Node[elem[T]]

// slab is a block of nodes one handle carves in order.
type slab[T any] struct {
	nodes [slabNodes]node[T]
	// live counts the nodes not yet unlinked as an old dummy; the dequeue
	// that takes it to 0 retires the slab.
	live atomic.Int32
}

// carve returns the handle's next node, holding v: the next one of its
// current slab, or the first of a new one (refill).
func (h *Handle[T]) carve(v T) *node[T] {
	if h.carved == slabNodes {
		h.refill()
	}
	n := &h.slab.nodes[h.carved]
	h.carved++
	*n.Value() = elem[T]{v, h.slab}
	return n
}

// refill replaces the handle's exhausted slab with the oldest retired one
// once it is ripe, cleared (its stale next pointers go with it), or else
// with a fresh one. With retired slabs waiting it first tries one era
// step, whether or not the oldest is ripe already: a slab retired since
// the previous refill is then ripe at the next one, so a handle whose
// ring holds one refill's worth of slabs never allocates.
func (h *Handle[T]) refill() {
	var s *slab[T]
	if h.slabs.Len() > 0 {
		h.TryAdvance()
		if h.Ripe(h.slabs.Oldest()) {
			s = h.slabs.Take()
			clear(s.nodes[:])
		}
	}
	if s == nil {
		s = new(slab[T])
	}
	s.live.Store(slabNodes)
	h.slab, h.carved = s, 0
}

// take moves the item out of front, the new dummy, leaving its slab
// pointer, and releases old, the dummy this handle's CAS just unlinked:
// the last node of its slab to leave retires the slab, tagged with the
// era read now, after the CAS. A full ring makes room by dropping its
// oldest slab once that is ripe, cleared first: a retired node's next
// pointer reaches every node linked after it, and a dropped slab must not
// keep those from the GC. While the oldest is not ripe the new slab goes
// to the GC instead.
func (h *Handle[T]) take(old, front *node[T]) T {
	e := front.Value()
	v := e.v
	var zero T
	e.v = zero
	if s := old.Value().s; s != nil && s.live.Add(-1) == 0 {
		era := h.Era()
		if h.slabs.Len() == slabRing {
			if !h.Ripe(h.slabs.Oldest()) {
				h.TryAdvance()
				if !h.Ripe(h.slabs.Oldest()) {
					return v
				}
			}
			clear(h.slabs.Take().nodes[:])
		}
		h.slabs.Put(s, era, slabRing)
	}
	return v
}
