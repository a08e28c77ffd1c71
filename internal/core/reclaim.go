package core

// Reclamation on the era pin (DESIGN.md §3). An object a handle's CAS
// removed from the structure — a descriptor a stack pop took out of its
// slot, or a slab of queue nodes whose last node a dequeue unlinked
// (internal/twodqueue) — goes into that handle's Ring, tagged with the era
// read after the removing CAS. An entry tagged e is ripe once the era is
// at least e + 2 (WindowHandle.Ripe): a handle that loaded it did so
// before the removing CAS, so it is pinned at or below e, and the era
// moves from e + 1 to e + 2 only when no pin is below e + 1. Tags never
// decrease along a ring, so its ripe entries are the oldest ones: the
// handle takes the oldest when it is ripe instead of allocating. Taking
// one clears its entry, so every step is O(1).
//
// On the stack only the singleton pops retire; the batch paths allocate
// and drop as before.

// recycleCap bounds each stack handle's ring (a power of two, for the
// index mask). A pop that finds its ring full leaves the descriptor to the
// GC. A retired descriptor keeps its popped value (and what its pointers
// reach) alive until it is reused, so a handle holds at most this many
// popped values back from the GC, plus what they point at (DESIGN.md §3).
const recycleCap = 256

// Ring is a handle's FIFO of retired objects, oldest first, each with the
// era tag it was retired under. The zero Ring is empty; the first Put
// allocates it. Like the handle holding it, a Ring is owner-goroutine
// only.
type Ring[P any] struct {
	buf  []retired[P] // power-of-two length
	head int
	n    int
}

// retired is a ring entry: an object a CAS removed, and the era read
// after that CAS.
type retired[P any] struct {
	p   P
	era uint64
}

// Len returns the number of entries.
func (r *Ring[P]) Len() int { return r.n }

// Put appends p, tagged era; a full ring leaves p to the GC. The first
// Put allocates size entries (a power of two).
func (r *Ring[P]) Put(p P, era uint64, size int) {
	if r.buf == nil {
		r.buf = make([]retired[P], size)
	}
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)&(len(r.buf)-1)] = retired[P]{p, era}
		r.n++
	}
}

// PutFront returns p, which no other handle has seen, to the front of the
// ring, tagged 0: it has no grace period to wait for. A ring that is full
// or was never allocated leaves p to the GC.
func (r *Ring[P]) PutFront(p P) {
	if r.n < len(r.buf) {
		r.head = (r.head - 1) & (len(r.buf) - 1)
		r.buf[r.head] = retired[P]{p, 0}
		r.n++
	}
}

// Oldest returns the oldest entry's era tag; the ring must not be empty.
func (r *Ring[P]) Oldest() uint64 { return r.buf[r.head].era }

// Take removes and returns the oldest entry; the ring must not be empty.
func (r *Ring[P]) Take() P {
	e := &r.buf[r.head]
	p := e.p
	*e = retired[P]{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// Era returns the era clock's current value (Window.era): a Ring tag is
// this value read after the removing CAS.
func (h *WindowHandle[T, S]) Era() uint64 { return h.w.era.V.Load() }

// Ripe reports whether an entry tagged tag has passed its grace period.
func (h *WindowHandle[T, S]) Ripe(tag uint64) bool { return tag+2 <= h.w.era.V.Load() }

// TryAdvance moves the era one step unless a pin lags it
// (Window.tryAdvance, which never waits).
func (h *WindowHandle[T, S]) TryAdvance() { h.w.tryAdvance() }

// retire hands d, which this handle's pop has just removed from its slot,
// to the ring. The tag is the era loaded now, after the CAS, not the era
// the handle pinned: a handle pinned at that era or later may have loaded
// d before the CAS.
func (h *Handle[T]) retire(d *descriptor[T]) {
	h.ring.Put(d, h.Era(), recycleCap)
}

// reuse returns a cleared descriptor: the oldest retired one once it is
// ripe, with advance set first trying one era step when it is not ripe
// yet, and a fresh one when nothing is ripe. Pushes advance, before they
// pin; pops, inside their pin, do not. The check for an empty ring is all
// that inlines, so a push-only phase (a prefill) allocates as directly as
// before recycling.
func (h *Handle[T]) reuse(advance bool) *descriptor[T] {
	if h.ring.n > 0 {
		return h.reuseRetired(advance)
	}
	return new(descriptor[T])
}

// reuseRetired is reuse with a non-empty ring.
func (h *Handle[T]) reuseRetired(advance bool) *descriptor[T] {
	if !h.Ripe(h.ring.Oldest()) {
		if !advance {
			return new(descriptor[T])
		}
		h.w.tryAdvance()
		if !h.Ripe(h.ring.Oldest()) {
			return new(descriptor[T])
		}
	}
	d := h.ring.Take()
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
// the front of the ring (Ring.PutFront).
func (h *Handle[T]) lost(d, next *descriptor[T]) {
	if next != d.below {
		h.ring.PutFront(next)
	}
}
