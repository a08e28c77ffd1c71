package twodqueue

import "stack2d/internal/core"

// The queue's own reconfiguration steps (core.Hooks); the shell runs the
// rest of every reconfiguration — see core.Window.Reconfigure. Semantics
// during a transition: in-flight operations follow the window rules of
// the geometry they pinned. Because items placed under the old windows are
// still being dequeued under the new ones, the two regimes' displacements
// can add — the effective bound during the handover is K_old + K_new,
// settling back to the active geometry's K once the pre-transition items
// have drained; a shrink's migrated items re-enter at the back of the live
// window — the transient reordering recorded in DESIGN.md §5.

// grow is the queue's Hooks.Grow: new sub-queues join with their window
// counters at the current window floors (see newSubQueue), so they absorb
// at most `depth` operations per window like every surviving slot.
func (q *Queue[T]) grow(subs []*subQueue[T], cfg Config) []*subQueue[T] {
	enqFloor := max(q.globalEnq.V.Load()-cfg.Depth, 0)
	deqFloor := max(q.globalDeq.V.Load()-cfg.Depth, 0)
	for len(subs) < cfg.Width {
		subs = append(subs, newSubQueue[T](enqFloor, deqFloor))
	}
	return subs
}

// handoffStranded is the warm shrink handoff: the dropped sub-queues are
// drained round-robin — one item per slot per round, which approximately
// reconstructs the stranded items' global FIFO order, since enqueues were
// themselves spread across the slots — and each item is appended directly
// to the surviving sub-queue currently holding the fewest items by an
// ordinary Michael–Scott Enqueue, which counts it in that sub-queue's
// enqueue window counter, so the counter keeps meaning "completed
// enqueues". Compared with the earlier approach — re-enqueueing every item
// through one internal handle's normal window search — this never touches
// the dequeue ceiling, advances the enqueue ceiling exactly once in a
// batch after the drain (the old funnel raised it once per exhausted
// window, the transient spike of DESIGN.md §5), burns no probes, and
// spreads the migrated population by the live counters instead of piling
// it wherever one handle's search landed.
//
// The load table is seeded from the live populations and updated locally as
// items are placed; concurrent client operations keep mutating the real
// lengths, so the balance is approximate — the displacement bound below
// does not depend on it being exact. The return value is this migration's
// addition to ShrinkDisplacementBound, which the shell accumulates and
// forwards into the handoff's structural event.
func (q *Queue[T]) handoffStranded(next *core.Geometry[subQueue[T]], dropped []*subQueue[T]) int64 {
	loads := make([]int64, len(next.Subs))
	var live, enqStart int64
	for i, sq := range next.Subs {
		loads[i] = int64(sq.q.Len())
		live += loads[i]
		enqStart += sq.enqs()
	}
	stranded := int64(0)
	for _, sq := range dropped {
		stranded += int64(sq.q.Len())
	}
	if stranded == 0 {
		// Nothing to migrate: no displacement happened and no counter
		// moved, so neither the accounting nor the window raise below has
		// anything to justify it (mirroring the stack's disp > 0 guard).
		return 0
	}
	for moved := true; moved; {
		moved = false
		for _, sq := range dropped {
			e, ok := sq.q.Dequeue()
			if !ok {
				continue
			}
			moved = true
			j := 0
			for i := 1; i < len(loads); i++ {
				if loads[i] < loads[j] {
					j = i
				}
			}
			next.Subs[j].q.Enqueue(elem[T]{v: e.v}) // a node of its own, no slab
			loads[j]++
		}
	}
	// A migrated item re-enters behind at most the live population, the
	// stranded items ahead of it, and whatever client enqueues landed in
	// the survivors while the drain ran. The latter is read exactly (up to
	// in-flight slack) from the survivors' own atomic enqueue counters:
	// the delta over the drain minus our own enqueues is the concurrent
	// client traffic placed ahead of later-migrated items.
	var enqEnd, minEnqs int64
	for i, sq := range next.Subs {
		e := sq.enqs()
		enqEnd += e
		if i == 0 || e < minEnqs {
			minEnqs = e
		}
	}
	concurrent := enqEnd - enqStart - stranded
	if concurrent < 0 {
		concurrent = 0
	}
	disp := live + stranded + concurrent

	// Reopen the enqueue window. The enqueues above push every survivor's
	// counter toward (or past) the untouched GlobalEnq ceiling, and with
	// all survivors enqueue-invalid at once, every client enqueue would
	// stall through ~migrated/(shift·width) consecutive coverage-and-raise
	// rounds — a structure-wide enqueue outage. One batched raise to
	// shift headroom above the least-loaded survivor is exactly the
	// advance the window would have made had the migrated items arrived
	// as ordinary enqueues: the counters stay inside the usual
	// [ceiling − depth, ceiling] band, so the Theorem 1 accounting is
	// unchanged, and unlike the retired funnel it happens once, not once
	// per exhausted band. (The monotone raise-if-below CAS loop tolerates
	// concurrent client raises.)
	core.RaiseTo(&q.globalEnq.V, minEnqs+next.Shift)
	return disp
}
