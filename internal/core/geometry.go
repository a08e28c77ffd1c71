package core

import "stack2d/internal/yield"

// Geometry is one immutable snapshot of a window's structure: the window
// parameters plus the slot array they govern. The Window publishes the
// active geometry through an atomic pointer; operations pin the pointer for
// their whole duration (see WindowHandle.PinOp), so a reconfiguration never
// changes the rules under a running search — in-flight operations finish
// on the geometry they started with.
//
// Geometries are linked by a monotonically increasing epoch. Width changes
// build a new slot slice that *shares* the surviving slots with the old
// geometry (slot pointers, not copies), which is what makes growth free of
// migration: items stay where they are and simply become visible to the
// wider geometry. Only a shrink strands items, in the dropped slots; those
// are migrated after the old epoch quiesces (see Window.reconfigureLocked).
type Geometry[S any] struct {
	Epoch uint64
	Width int
	Depth int64
	Shift int64
	Hops  int
	Subs  []*S

	// Placement (DESIGN.md §7): homes maps each slot to its socket
	// (len == width; all zeros while placement is off), nsockets is the
	// socket count the homes were computed for, and localProbe selects the
	// socket-aware search (false keeps the pre-placement hot path
	// unchanged). Handles derive their probe permutations from homes
	// lazily (WindowHandle.probe), each with a private rotation of the
	// remote section, so same-socket handles don't convoy when they spill.
	homes      []int
	nsockets   int
	localProbe bool
}

// config re-packages the geometry's parameters as a Config.
func (g *Geometry[S]) config() Config {
	return Config{Width: g.Width, Depth: g.Depth, Shift: g.Shift, RandomHops: g.Hops}
}

// stampPlacement writes the slot-home map and the probe mode onto a
// geometry being built. Caller holds reMu, so placePolicy/placeSockets are
// stable.
func (w *Window[T, S]) stampPlacement(g *Geometry[S], homes []int) {
	g.homes = homes
	g.nsockets = w.placeSockets
	g.localProbe = w.placePolicy != nil && w.placePolicy.LocalProbeOrder() && w.placeSockets > 1
}

// SetPlacement installs the structure's socket-placement model (DESIGN.md
// §7): policy decides the home socket of every slot — the current slots
// are re-homed immediately from scratch, and every future width growth
// places its new slots through the policy with the requesting socket's
// attribution (see ReconfigureOnSocket) — and sockets is the machine's
// socket count, clamped to [1, MaxPlacementSockets]. Under a local-probe
// policy (LocalFirst) operation searches visit slots homed on the handle's
// socket (WindowHandle.Pin, or the creation-order heuristic) before remote
// ones. Placement never changes the window validity rules — only slot
// homes and visit order — so the relaxation bound is unaffected. Pass
// sockets <= 1, or the RoundRobin policy, to restore the placement-blind
// behaviour. Re-homing swaps the geometry wholesale (no item moves), so
// SetPlacement is safe concurrently with operations, though handles
// created before it keep the heuristic socket computed for the old socket
// count until they are re-pinned.
func (w *Window[T, S]) SetPlacement(policy PlacementPolicy, sockets int) {
	w.reMu.Lock()
	defer w.reMu.Unlock()
	if sockets < 1 {
		sockets = 1
	}
	if sockets > MaxPlacementSockets {
		sockets = MaxPlacementSockets
	}
	w.placePolicy, w.placeSockets = policy, sockets
	old := w.geo.Load()
	next := &Geometry[S]{
		Epoch: old.Epoch + 1,
		Width: old.Width,
		Depth: old.Depth,
		Shift: old.Shift,
		Hops:  old.Hops,
		Subs:  old.Subs,
	}
	w.stampPlacement(next, PlaceSlots(policy, nil, old.Width, -1, sockets))
	w.geo.Store(next)
	w.emitStruct(StructEvent{
		Kind: StructPlacement, Epoch: next.Epoch,
		OldWidth: old.Width, Width: next.Width, Depth: next.Depth, Shift: next.Shift,
		Requester: -1, Sockets: sockets,
	})
}

// Placement returns a copy of the current slot→socket home map (all zeros
// while placement is off). Diagnostics, tests and cmd/adapttune reporting.
func (w *Window[T, S]) Placement() []int {
	g := w.geo.Load()
	out := make([]int, len(g.homes))
	copy(out, g.homes)
	return out
}

// PlacementSocketFor returns the socket the creation-order heuristic
// assigns the i-th handle (HeuristicSocket over the configured socket
// count): the harness pins worker i's handle with it so the native
// structures see the same fill-socket-0-first layout the simulated
// machine uses.
func (w *Window[T, S]) PlacementSocketFor(i int) int {
	return HeuristicSocket(i, w.geo.Load().nsockets)
}

// Reconfigure atomically replaces the structure's geometry with cfg. It is
// safe to call concurrently with operations (and with other Reconfigure
// calls, which serialise). Items are never lost or duplicated:
//
//   - Depth/shift/hops changes swap only the parameters; the slot array is
//     shared between the old and new geometry.
//   - Width growth appends empty slots (Hooks.Grow); existing slots are
//     shared, so no item moves.
//   - Width shrink drops slots from the new geometry, waits for every
//     operation pinned to the old geometry to finish (epoch quiescence),
//     then hands the stranded items to the survivors (Hooks.Handoff: the
//     stack's one-CAS chain splice, the queue's round-robin drain), with
//     one batched advance of the window instead of one per exhausted band.
//
// Semantics during a transition: operations still in flight on the old
// geometry follow its window rules, so for the duration of the handover
// the effective relaxation bound combines K_old and K_new (DESIGN.md §4
// for the stack, §5 for the queue) plus the migration's addition to
// ShrinkDisplacementBound. A shrink additionally makes the stranded items
// invisible to new-geometry operations until the migration completes
// (Reconfigure returns only after it has): a concurrent pop inside that
// window may report empty even though stranded items exist. Callers that
// treat empty as terminal — drain loops, shutdown paths — should therefore
// not shrink width concurrently with consumers racing the structure to
// empty. Once the migration finishes the active geometry's bound applies
// again.
//
// Reconfigure must not be called from inside an operation on the same
// structure (there is no way to do so through the public API).
func (w *Window[T, S]) Reconfigure(cfg Config) error {
	return w.ReconfigureOnSocket(cfg, -1)
}

// ReconfigureOnSocket is Reconfigure with placement attribution: requester
// is the socket whose contention asked for the change (-1 when unknown —
// plain Reconfigure). Width growth hands the requester to the placement
// policy, so LocalFirst fills the asking socket's slots first; width
// shrink prefers dropping slots remote to the requester (ShrinkSurvivors),
// keeping the surviving capacity on the pressured socket. With placement
// off (or no attribution) it behaves exactly like Reconfigure. This is the
// entry point internal/adapt's controller uses when the target advertises
// placement (adapt.SocketAware).
func (w *Window[T, S]) ReconfigureOnSocket(cfg Config, requester int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	w.reMu.Lock()
	defer w.reMu.Unlock()
	return w.reconfigureLocked(cfg, requester)
}

// SetWindow adjusts depth and shift, keeping width and hops. This is the
// cheap reconfiguration path: no migration, no quiescence wait.
func (w *Window[T, S]) SetWindow(depth, shift int64) error {
	w.reMu.Lock()
	defer w.reMu.Unlock()
	cfg := w.geo.Load().config()
	cfg.Depth, cfg.Shift = depth, shift
	return w.reconfigureLocked(cfg, -1)
}

// SetWidth adjusts the sub-structure count, keeping the window parameters.
func (w *Window[T, S]) SetWidth(width int) error {
	w.reMu.Lock()
	defer w.reMu.Unlock()
	cfg := w.geo.Load().config()
	cfg.Width = width
	return w.reconfigureLocked(cfg, -1)
}

func (w *Window[T, S]) reconfigureLocked(cfg Config, requester int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	old := w.geo.Load()
	if old.config() == cfg {
		return nil
	}
	next := &Geometry[S]{
		Epoch: old.Epoch + 1,
		Width: cfg.Width,
		Depth: cfg.Depth,
		Shift: cfg.Shift,
		Hops:  cfg.RandomHops,
	}
	var dropped []*S
	switch {
	case cfg.Width == old.Width:
		next.Subs = old.Subs
		w.stampPlacement(next, old.homes)
	case cfg.Width > old.Width:
		next.Subs = w.hooks.Grow(append(make([]*S, 0, cfg.Width), old.Subs...), cfg)
		// New slots are homed by the placement policy, requester first
		// under LocalFirst (a no-op map of zeros while placement is off).
		w.stampPlacement(next, PlaceSlots(w.placePolicy, old.homes, cfg.Width, requester, w.placeSockets))
	default:
		// Shrink: keep the survivors ShrinkPlan picks (the leading slots
		// when placement-blind; preferring to drop slots remote to the
		// requester otherwise), strand the rest for migration.
		surv, homes := ShrinkPlan(w.placePolicy, old.homes, cfg.Width, requester)
		keep := make(map[int]bool, len(surv))
		next.Subs = make([]*S, 0, cfg.Width)
		for _, i := range surv {
			keep[i] = true
			next.Subs = append(next.Subs, old.Subs[i])
		}
		for i, sub := range old.Subs {
			if !keep[i] {
				dropped = append(dropped, sub)
			}
		}
		w.stampPlacement(next, homes)
	}
	// Director yield point: the instant before the new window rules become
	// visible to fresh pins — a suspended schedule here interleaves
	// old-geometry operations against the fully built successor.
	yield.Fire(yield.PointGeometryPublish)
	w.geo.Store(next)

	// Re-establish ceiling >= depth so the window arithmetic starts sane on
	// the new geometry. (Stale-geometry operations may disturb it again for
	// a moment; the operations tolerate that, so this is a performance
	// nicety, not a safety requirement.)
	w.hooks.Raise(cfg.Depth)

	// The reconfiguration event marks the publish point: it precedes any
	// handoff event of the same shrink, so a drained trace reads causally
	// (reconfig, then its migration, then the controller tick that reported
	// both).
	w.emitStruct(StructEvent{
		Kind: StructReconfig, Epoch: next.Epoch,
		OldWidth: old.Width, Width: next.Width, Depth: next.Depth, Shift: next.Shift,
		Requester: requester, Stranded: len(dropped),
	})

	if len(dropped) > 0 {
		// Items in the dropped slots are invisible to the new geometry.
		// Wait until no operation can touch them through the old one, then
		// move them into the live window. After quiescence the slots are
		// exclusively ours (new-geometry searches never index past width).
		// The handoff runs under the reader pin: it reads the survivors'
		// descriptors or tails while clients pop and dequeue, and none of
		// those may be reused before its CAS.
		w.waitQuiesce()
		w.pinRead()
		disp := w.hooks.Handoff(next, dropped)
		w.unpinRead()
		w.shrinkDisp.Add(disp)
		w.emitStruct(StructEvent{
			Kind: StructShrinkHandoff, Epoch: next.Epoch,
			OldWidth: old.Width, Width: next.Width, Depth: next.Depth, Shift: next.Shift,
			Requester: requester, Stranded: len(dropped), Displacement: disp,
		})
	}
	return nil
}
