package core

// Descriptor recycling (DESIGN.md §3). A singleton pop retires the
// descriptor its CAS removed into its handle's ring of retired
// descriptors, tagged with the era read after that CAS. A descriptor
// tagged e is reusable once the era is at least e + 2: a handle that
// loaded it did so before the removing CAS, so it is pinned at or below e,
// and the era moves from e + 1 to e + 2 only when no pin is below e + 1.
// Tags never decrease along the ring, so its reusable descriptors are the
// oldest ones: a push takes the oldest when it is reusable instead of
// allocating, and so does a pop that has to build its new state
// (Handle.beneath). Taking one clears it, so every step is O(1).
//
// Only the stack's singleton pops retire; the batch paths allocate and
// drop as before.

// recycleCap bounds each handle's ring (a power of two, for the index
// mask). A pop that finds its ring full leaves the descriptor to the GC.
// A retired descriptor keeps its popped value (and what its pointers
// reach) alive until it is reused, so a handle holds at most this many
// popped values back from the GC, plus what they point at (DESIGN.md §3).
const recycleCap = 256

// retired is a ring entry: a descriptor a pop removed, and the era read
// after the removing CAS.
type retired[T any] struct {
	d   *descriptor[T]
	era uint64
}

// retire hands d, which this handle's pop has just removed from its slot,
// to the ring. The tag is the era loaded now, after the CAS, not the era
// the handle pinned: a handle pinned at that era or later may have loaded
// d before the CAS.
func (h *Handle[T]) retire(d *descriptor[T]) {
	if h.ring == nil {
		h.ring = new([recycleCap]retired[T])
	}
	if h.retiredN < recycleCap {
		h.ring[(h.ringHead+h.retiredN)&(recycleCap-1)] = retired[T]{d, h.w.era.V.Load()}
		h.retiredN++
	}
}

// reusable reports whether the oldest retired descriptor's grace period
// has passed; the ring must not be empty.
func (h *Handle[T]) reusable() bool {
	return h.ring[h.ringHead].era+2 <= h.w.era.V.Load()
}

// reuse returns a cleared descriptor: the oldest retired one once it is
// reusable, with advance set first trying one era step (Window.tryAdvance,
// which never waits) when it is not reusable yet, and a fresh one when
// nothing is reusable. Pushes advance, before they pin; pops, inside their
// pin, do not. The check for an empty ring is all that inlines, so a
// push-only phase (a prefill) allocates as directly as before recycling.
func (h *Handle[T]) reuse(advance bool) *descriptor[T] {
	if h.retiredN > 0 {
		return h.reuseRetired(advance)
	}
	return new(descriptor[T])
}

// reuseRetired is reuse with a non-empty ring.
func (h *Handle[T]) reuseRetired(advance bool) *descriptor[T] {
	if !h.reusable() {
		if !advance {
			return new(descriptor[T])
		}
		h.w.tryAdvance()
		if !h.reusable() {
			return new(descriptor[T])
		}
	}
	r := &h.ring[h.ringHead]
	d := r.d
	*r = retired[T]{}
	h.ringHead = (h.ringHead + 1) & (recycleCap - 1)
	h.retiredN--
	*d = descriptor[T]{}
	return d
}

// beneath returns the state of d without its top item: d.below when it
// holds exactly one item fewer, allocating nothing, and otherwise a
// reusable descriptor holding a copy of d's second node over d.below
// (descriptor.rebase; d.below is the first chain entry with fewer items).
func (h *Handle[T]) beneath(d *descriptor[T]) *descriptor[T] {
	if b := d.below; b != nil && b.count == d.count-1 {
		return b
	}
	return d.rebase(h.reuse(false), 1, d.below)
}

// lost takes back next, the state a pop failed to install over d: a
// descriptor beneath built, which no other handle has seen, goes back to
// the front of the ring, tagged 0: it has no grace period to wait for. (A
// handle that has never retired anything leaves it to the GC.)
func (h *Handle[T]) lost(d, next *descriptor[T]) {
	if next != d.below && h.ring != nil && h.retiredN < recycleCap {
		h.ringHead = (h.ringHead - 1) & (recycleCap - 1)
		h.ring[h.ringHead] = retired[T]{next, 0}
		h.retiredN++
	}
}
