package core

import (
	"sync/atomic"

	"stack2d/internal/pad"
)

// node is one cell of a sub-stack's singly linked list.
type node[T any] struct {
	value T
	next  *node[T]
}

// descriptor is the immutable per-sub-stack snapshot the paper updates with
// a 16-byte compare-and-exchange: the topmost node and the item counter,
// changed together in one atomic step.
//
// Substitution note (see DESIGN.md §3): instead of cmpxchg16b the sub-stack
// swings a single atomic.Pointer between descriptors, so the {top, count}
// pair still changes atomically and the algorithm remains lock-free. The
// descriptor embeds its top node, so a push needs one object (32 bytes for
// 8-byte values: one a pop retired, or a fresh one; reclaim.go), and below
// points at a state this descriptor was built over. The list under a node
// never changes, so removing exactly count − below.count items restores
// below itself: a pop re-installs a descriptor it can reach instead of
// building one (without).
//
// Invariant: for every b on the below chain, b.count < count, and the
// node at depth count − b.count of the list (depth 0 is &top) is &b.top,
// or nil when b is empty. A descriptor therefore describes exactly one
// stack content for as long as any handle can reach it, so re-entering a
// slot is harmless: a CAS that expected it finds the contents it read.
// A recycled descriptor takes new contents only after every handle that
// could reach it has unpinned. The one write to a published node —
// spliceStranded's relink — touches only nodes of a slot no handle can
// reach any more.
type descriptor[T any] struct {
	top   node[T] // the topmost item; unused when count is 0
	count int64   // exact length of the list starting at &top
	below *descriptor[T]
}

// head returns the top node of d's list, nil when d is empty.
func (d *descriptor[T]) head() *node[T] {
	if d.count == 0 {
		return nil
	}
	return &d.top
}

// without returns the state of d with its m topmost items removed
// (0 < m <= d.count): the below-chain entry holding exactly d.count − m
// items when there is one, allocating nothing, and otherwise a fresh
// descriptor holding a copy of the node at depth m (rebase), over the
// first chain entry with fewer items. Chain counts strictly decrease, so
// for m = 1 the search stops at d.below; the singleton pops use
// Handle.beneath, which reuses a descriptor the handle retired instead of
// allocating.
func (d *descriptor[T]) without(m int64) *descriptor[T] {
	rest := d.count - m
	b := d.below
	for b != nil && b.count > rest {
		b = b.below
	}
	if b != nil && b.count == rest {
		return b
	}
	return d.rebase(new(descriptor[T]), m, b)
}

// rebase fills r, a cleared descriptor no other handle can reach, with the
// state of d's list from depth m down, over b, and returns it.
func (d *descriptor[T]) rebase(r *descriptor[T], m int64, b *descriptor[T]) *descriptor[T] {
	r.count, r.below = d.count-m, b
	if r.count > 0 {
		n := &d.top
		for i := int64(0); i < m; i++ {
			n = n.next
		}
		r.top = *n
	}
	return r
}

// subStack is a single sub-stack slot in the stack-array. Each slot is
// padded to a cache line so CAS traffic on one sub-stack does not invalidate
// its neighbours (the disjoint-access-parallelism dimension of the design).
type subStack[T any] struct {
	desc atomic.Pointer[descriptor[T]]
	// base is the window height the slot joined at, fixed for its life: 0
	// for the slots a stack starts with, the window floor for slots a width
	// growth adds (DESIGN.md §4). The window rules compare the slot's
	// height, base + count, against Global, so a slot that joins a
	// populated stack is inside the band at once instead of hiding its
	// first items below the pop floor.
	base int64
	_    [pad.CacheLineSize - 16]byte
}

// load returns the current descriptor. Sub-stacks are initialised eagerly,
// so the result is never nil.
func (ss *subStack[T]) load() *descriptor[T] { return ss.desc.Load() }

// cas attempts to replace old with next in one atomic step.
func (ss *subStack[T]) cas(old, next *descriptor[T]) bool {
	return ss.desc.CompareAndSwap(old, next)
}
