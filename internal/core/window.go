package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"stack2d/internal/pad"
	"stack2d/internal/xrand"
	"stack2d/internal/yield"
)

// Window is the two-dimensional window shell shared by the 2D-Stack (this
// package) and the 2D-Queue (internal/twodqueue): everything about the
// technique that does not depend on what the window's slots hold. S is the
// sub-structure type — the descriptor sub-stack here, the Michael–Scott
// sub-queue there. The shell owns the published geometry and its epochs,
// the era clock every operation pins (shrink quiescence, and the
// reclamation of stack descriptors and queue node slabs), the weak-handle
// Registry (quiescence detection, stats aggregation, the buffered-resident
// and abandoned-item totals), socket placement, reconfiguration and the
// structural observer.
// A structure embeds a Window by value, next to its own window ceilings,
// and supplies its Hooks for the three reconfiguration steps that do
// depend on S; its handles embed a WindowHandle the same way. DESIGN.md §4
// gives the invariants.
//
// A Window must not be copied.
type Window[T, S any] struct {
	// geo is the active geometry (window parameters + slot array),
	// replaced wholesale by reconfiguration. Padded away from whatever the
	// structure lays out next, so window movement never invalidates the
	// read-mostly geometry pointer.
	geo atomic.Pointer[Geometry[S]]
	_   pad.CacheLinePad
	// seed feeds handle RNGs; purely to give each handle an independent
	// deterministic stream.
	seed pad.Uint64Line
	// era is the clock handles pin (WindowHandle.pinGeo): a pin stores the
	// era, then loads the geometry. It starts at 1 and moves from g to
	// g + 1 only while no handle and no reader is pinned below g
	// (advanceLocked), under the registry lock: on a width shrink
	// (waitQuiesce), on the stack when a push finds nothing to reuse, and
	// on the queue when a slab refill finds nothing ripe or a dequeue
	// finds its slab ring full (WindowHandle.Ripe; DESIGN.md §3–4).
	era pad.Uint64Line
	// readMu serialises the readers that pin outside any operation (the
	// stack's Len, Empty, SubCounts and CheckInvariants, and the shrink
	// handoff of both structures); readPin is their one pin word, 0 when
	// no reader is in.
	// A reader is not a registered handle: it takes no handle seed and no
	// registry entry, and no operation ever waits on it.
	readMu  sync.Mutex
	readPin atomic.Uint64

	// reMu serialises reconfigurations. It also guards the placement
	// settings below, which every geometry build reads, and the structural
	// observer (obsv), whose events are emitted only under it.
	reMu  sync.Mutex
	hooks Hooks[S]
	// obsv receives structural transition events (reconfigurations, shrink
	// handoffs, placement re-homes); nil — the default — costs nothing.
	// See SetObserver and DESIGN.md §8.
	obsv Observer
	// placePolicy/placeSockets are the socket-placement model installed by
	// SetPlacement (nil policy / 1 socket = placement off, the default):
	// the policy homes new slots on width growth and picks shrink
	// survivors; the active geometry carries the resulting slot→socket
	// map. See DESIGN.md §7.
	placePolicy  PlacementPolicy
	placeSockets int
	// handleSeq counts registrations; the creation-order heuristic derives
	// each handle's default socket hint from it (HeuristicSocket).
	handleSeq atomic.Int64
	// shrinkDisp accumulates, over all width shrinks, the displacement
	// bound each handoff reported (see Hooks.Handoff and
	// ShrinkDisplacementBound).
	shrinkDisp atomic.Int64

	// Registry is the handle registry, which powers shrink quiescence
	// and era advances (pinnedBelow walks its entries under its lock) and
	// provides StatsSnapshot, BufferedItems, AbandonedItems and
	// RegisteredHandles.
	Registry[WindowHandle[T, S]]
}

// Hooks are a structure's own steps in the shell's reconfiguration. They
// run only under the reconfiguration lock, never per operation.
type Hooks[S any] struct {
	// Grow appends empty sub-structures to subs until it holds cfg.Width
	// and returns the result; the shell passes the surviving slots of the
	// superseded geometry (none at construction). The stack appends fresh
	// sub-stacks; the queue's newcomers join at the current window floors.
	Grow func(subs []*S, cfg Config) []*S
	// Raise lifts the structure's window ceilings to at least depth; it
	// runs at construction and right after every geometry publish.
	Raise func(depth int64)
	// Handoff migrates the items stranded in the dropped slots into next
	// once no operation can reach them through the superseded geometry,
	// and returns the displacement bound the migration adds. It runs
	// under the reader pin (pinRead), so nothing it loads from a survivor
	// is reused under it. The stack splices chains; the queue drains
	// round-robin.
	Handoff func(next *Geometry[S], dropped []*S) int64
}

// Init validates cfg and installs the structure's first geometry and its
// hooks. Call it once, from the structure's constructor, before any handle
// exists.
func (w *Window[T, S]) Init(cfg Config, hooks Hooks[S]) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	w.hooks, w.placeSockets = hooks, 1
	w.era.V.Store(1)
	w.geo.Store(&Geometry[S]{
		Epoch: 1, Width: cfg.Width, Depth: cfg.Depth, Shift: cfg.Shift, Hops: cfg.RandomHops,
		Subs:  hooks.Grow(make([]*S, 0, cfg.Width), cfg),
		homes: make([]int, cfg.Width), nsockets: 1,
	})
	hooks.Raise(cfg.Depth)
	return nil
}

// Geometry returns the active geometry. The snapshot is immutable; a
// concurrent reconfiguration may supersede it at once.
func (w *Window[T, S]) Geometry() *Geometry[S] { return w.geo.Load() }

// Config returns the structure's active configuration. Under live
// reconfiguration the value is the geometry current at the call, which a
// concurrent Reconfigure may immediately supersede.
func (w *Window[T, S]) Config() Config { return w.geo.Load().config() }

// Width returns the current number of sub-structures.
func (w *Window[T, S]) Width() int { return w.geo.Load().Width }

// Epoch returns the active geometry's epoch; it increases by one per
// successful reconfiguration. Diagnostics only.
func (w *Window[T, S]) Epoch() uint64 { return w.geo.Load().Epoch }

// ShrinkDisplacementBound returns the cumulative upper bound on the
// displacement attributable to width-shrink migrations: the sum of what
// every handoff reported (DESIGN.md §4 for the stack's splices, §5 for the
// queue's drains). Zero while no shrink has migrated anything. Diagnostics
// — cmd/adapttune uses it to budget its realised-distance check.
func (w *Window[T, S]) ShrinkDisplacementBound() int64 { return w.shrinkDisp.Load() }

// Register initialises h as a handle of this structure — its RNG, the
// first `anchors` of its locality anchors (drawn at random in index
// order), its creation-order socket hint — gives it the structure's buffer
// steps, and adds it to the registry (Registry.Register), which holds it
// weakly.
func (w *Window[T, S]) Register(h *WindowHandle[T, S], anchors int, buf BufferHooks[T]) {
	h.w, h.buf = w, buf
	h.rng = xrand.New(w.seed.V.Add(0x9e3779b97f4a7c15))
	order := int(w.handleSeq.Add(1) - 1)
	geo := w.geo.Load()
	for i := 0; i < anchors; i++ {
		h.Last[i] = h.rng.Intn(geo.Width)
	}
	h.socket = HeuristicSocket(order, geo.nsockets)
	h.latCountdown = LatencySampleInterval
	w.Registry.Register(h, &h.Counters)
}

// pinRead pins the era for a reader outside any operation, so the
// descriptors and queue nodes it loads are not reused under it; readers
// serialise on readMu. Pair with unpinRead.
func (w *Window[T, S]) pinRead() {
	w.readMu.Lock()
	w.readPin.Store(w.era.V.Load())
}

// unpinRead ends a reader's pin.
func (w *Window[T, S]) unpinRead() {
	w.readPin.Store(0)
	w.readMu.Unlock()
}

// tryAdvance moves the era one step if no pin lags it (advanceLocked). It
// never waits: when the registry lock is taken it gives up, and the caller
// carries on without the step.
func (w *Window[T, S]) tryAdvance() {
	if w.hMu.TryLock() {
		w.advanceLocked()
		w.hMu.Unlock()
	}
}

// advanceLocked moves the era from g to g + 1 unless a handle or the
// reader is pinned below g. Each step scans the pins after the previous
// step's store, so a pin taken at g − 1 that an earlier scan missed
// blocks this one. Caller holds hMu.
func (w *Window[T, S]) advanceLocked() {
	g := w.era.V.Load()
	if p := w.readPin.Load(); (p != 0 && p < g) || w.pinnedBelow(g) {
		return
	}
	w.era.V.Store(g + 1)
}

// pinnedBelow reports whether a registered handle is pinned at an era
// below e. A collected handle (weak pointer gone nil) is idle by
// definition: a goroutine still running an operation keeps its handle
// reachable. Caller holds hMu.
func (w *Window[T, S]) pinnedBelow(e uint64) bool {
	for _, entry := range w.handles {
		if h := entry.wp.Value(); h != nil {
			if p := h.pin.Load(); p != 0 && p < e {
				return true
			}
		}
	}
	return false
}

// waitQuiesce blocks until no operation can still be running on a
// geometry published before the call. It moves the era past its value at
// the call, to E, and waits until no handle is pinned in [1, E). A handle
// whose pin store the last scan missed stored it after that scan, and
// loads the geometry after its store: it runs on the new one. Operations
// are lock-free and finite, so this terminates; new operations pin the
// already-published geometry and do not delay it.
func (w *Window[T, S]) waitQuiesce() {
	e := w.era.V.Load() + 1
	for {
		w.hMu.Lock()
		if w.era.V.Load() < e {
			w.advanceLocked()
		}
		busy := w.era.V.Load() < e || w.pinnedBelow(e)
		w.hMu.Unlock()
		if !busy {
			return
		}
		// Director yield point: a directed reconfiguration parks here so
		// the scheduler can run the pinned operations to completion instead
		// of spinning the wait loop forever (yield.PointWait semantics).
		yield.Fire(yield.PointWait)
		runtime.Gosched()
	}
}
