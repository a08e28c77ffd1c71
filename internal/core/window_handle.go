package core

import (
	"sync/atomic"
	"time"

	"stack2d/internal/xrand"
)

// WindowHandle is the per-handle half of the window shell: the window
// search (Search) and the state it runs on (locality anchors, RNG, socket
// hint and probe-plan cache, work counters), the era pin that
// reconfiguration and descriptor reuse wait on, the 1-in-N latency
// sampler, the periodic stats flush, and the op-buffer state (buffer.go).
// A structure's handle embeds one by value and writes each operation as a
// Search visitor — its validity test and atomic step — plus the window
// move or empty verdict after a failed pass; Register initialises it.
// Like the handle embedding it, a WindowHandle is NOT safe for concurrent
// use: every method is owner-goroutine only.
type WindowHandle[T, S any] struct {
	w *Window[T, S]
	// rng is the handle's private stream for hop selection.
	rng *xrand.State
	// Last holds the locality anchors: the slot index of the most recent
	// success at each end of the structure. The stack uses Last[0]; the
	// queue's enqueue end is Last[0] and its dequeue end Last[1].
	Last [2]int
	// Counters holds the work counters (Count), updated by Search and the
	// structures' visitors without atomics, and publishes them to the
	// structure's Registry every statsFlushInterval operations.
	Counters

	// socket is the placement hint: the socket the owning goroutine is
	// believed to run on, defaulted by the creation-order heuristic and
	// overridden by Pin. Under a local-probe placement policy searches
	// visit slots homed on this socket first; CAS failures are attributed
	// to it in OpStats.SocketCAS. Always in [0, MaxPlacementSockets).
	socket int

	// planGeo/planSocket key the cached probe plan below: the local-first
	// permutation this handle walks (buildProbePlan over the geometry's
	// slot homes, with a handle-private rotation of the remote section),
	// rebuilt lazily when the geometry or the pinned socket changes.
	planGeo    *Geometry[S]
	planSocket int
	planOrd    []int
	planPos    []int
	planLocalN int

	// latCountdown counts operations down to the next latency sample: one
	// operation in LatencySampleInterval is timed end to end
	// (latSampling/latStart carry the in-flight sample between pin and
	// unpin). A decrement-and-test countdown instead of a counter-and-
	// modulo keeps the uncontended fast path to one predicted-untaken
	// branch and defers the clock read until after the sample decision.
	latCountdown int
	latSampling  bool
	latStart     time.Time

	// Op-buffer state (see buffer.go; inert until SetOpBuffer arms it).
	// bufCap is the combined-publication threshold; pending holds buffered,
	// not-yet-published pushes oldest-first; prefetch[prefStart:] holds
	// structurally popped but not-yet-delivered values in delivery order;
	// bufEpoch is the geometry epoch the buffers were last reconciled with;
	// buf is the structure's batch steps. The resident total is published
	// in the Counters' mirror (sharedCounters.residents) for Len and
	// AbandonedItems.
	bufCap    int
	pending   []T
	prefetch  []T
	prefStart int
	bufEpoch  uint64
	buf       BufferHooks[T]

	// pin is the era (Window.era) the handle loaded when its current
	// operation pinned, or 0 when idle. Written only by the owner, read
	// under the registry lock by era advances and shrink quiescence.
	pin atomic.Uint64
}

// Pin declares the socket the owning goroutine runs on, overriding the
// creation-order heuristic Register applied. Under a local-probe
// placement policy (see Window.SetPlacement and DESIGN.md §7) subsequent
// operations visit slots homed on this socket before remote ones, and the
// handle's CAS failures are attributed to it in StatsSnapshot — the signal
// the adaptive controller uses to home new slots near the contention.
// Negative ids are treated as 0 and ids are folded modulo
// MaxPlacementSockets; at operation time a hint beyond the configured
// socket count is further folded modulo that count (see sockIdx), so the
// socket a handle probes as always matches the socket its contention is
// attributed to. Pinning never affects window semantics, only probe
// order.
func (h *WindowHandle[T, S]) Pin(socket int) {
	if socket < 0 {
		socket = 0
	}
	h.socket = socket % MaxPlacementSockets
}

// Socket returns the handle's current placement hint.
func (h *WindowHandle[T, S]) Socket() int { return h.socket }

// sockIdx reduces the handle's socket hint to the geometry's socket count
// — the same reduction probe applies when building the walk — so the
// socket a handle contends AS is the socket its CAS pressure is
// attributed TO. Without this, a handle pinned beyond the configured
// socket count would probe as socket (hint mod nsockets) but report
// pressure on the raw hint, and LocalFirst would discard the requester.
func (h *WindowHandle[T, S]) sockIdx(geo *Geometry[S]) int {
	if geo.nsockets > 1 {
		return h.socket % geo.nsockets
	}
	return h.socket
}

// probe returns the handle's probe plan for the pinned geometry: the slot
// permutation to walk (same-socket slots first, remote spill section
// privately rotated), its slot→position inverse, and the local-slot
// count. All nil/0 for placement-blind geometries, selecting the plain
// index-order search. The plan is cached per (geometry, socket), so the
// steady-state cost is two pointer compares.
func (h *WindowHandle[T, S]) probe(geo *Geometry[S]) (ord, pos []int, localN int) {
	if !geo.localProbe {
		return nil, nil, 0
	}
	if h.planGeo != geo || h.planSocket != h.socket {
		s := h.socket % geo.nsockets
		h.planOrd, h.planPos, h.planLocalN = buildProbePlan(geo.homes, s, h.rng.Intn(geo.Width))
		h.planGeo, h.planSocket = geo, h.socket
	}
	return h.planOrd, h.planPos, h.planLocalN
}

// armLatSample opens a latency sample: reset the countdown, mark the
// sample in flight, read the clock. Deliberately noinline: it runs once per
// LatencySampleInterval operations, and keeping its body (the time.Now
// call above all) out of PinOp's inlined code leaves the uncontended fast
// path with only the countdown decrement-and-test — the clock is read
// strictly after the sample decision.
//
//go:noinline
func (h *WindowHandle[T, S]) armLatSample() {
	h.latCountdown = LatencySampleInterval
	h.latSampling = true
	h.latStart = time.Now()
}

// closeLatSample records the in-flight sample's bucket; noinline for the
// same reason as armLatSample — Unpin's inlined body keeps only the
// predicted-untaken latSampling test.
//
//go:noinline
func (h *WindowHandle[T, S]) closeLatSample() {
	h.latSampling = false
	h.Count.Latency[LatencyBucket(time.Since(h.latStart))]++
}

// pinGeo publishes the handle as active at the current era, then loads
// the geometry and returns it. No re-check is needed: a width shrink
// publishes its geometry before it moves the era past every pin it waits
// for (Window.waitQuiesce), so a pin its scan saw keeps it waiting, and a
// pin stored after its scan is followed by a load of the new geometry.
func (h *WindowHandle[T, S]) pinGeo() *Geometry[S] {
	h.pin.Store(h.w.era.V.Load())
	geo := h.w.geo.Load()
	// An anchor can dangle after a width shrink; re-anchor. (The stack's
	// unused Last[1] stays 0, always in range.)
	if h.Last[0] >= geo.Width {
		h.Last[0] = h.rng.Intn(geo.Width)
	}
	if h.Last[1] >= geo.Width {
		h.Last[1] = h.rng.Intn(geo.Width)
	}
	return geo
}

// PinOp pins the current geometry for one operation (pinGeo) and makes
// the 1-in-N latency sample decision: a sampled operation is timed from
// here to the matching Unpin, so the estimate covers the whole search
// including window maintenance and restarts.
func (h *WindowHandle[T, S]) PinOp() *Geometry[S] {
	h.latCountdown--
	if h.latCountdown <= 0 {
		h.armLatSample()
	}
	return h.pinGeo()
}

// PinBatch is PinOp without the sampling countdown. A batch is many
// operations under one pin: its end-to-end time is not a per-operation
// latency, so it must not open a sample — and it must not consume a
// countdown tick either. (Batches used to run the full pin and cancel the
// sample afterwards, which silently ate the tick whenever one landed on
// the sample point: a batch-heavy phase skewed the stride and could starve
// post-batch sampling entirely. TestLatencySampleStridePinned pins the
// corrected behaviour.)
func (h *WindowHandle[T, S]) PinBatch() *Geometry[S] {
	return h.pinGeo()
}

// Unpin marks the handle idle, closes an in-flight latency sample, and
// periodically publishes its counters.
func (h *WindowHandle[T, S]) Unpin() {
	h.pin.Store(0)
	if h.latSampling {
		h.closeLatSample()
	}
	h.MaybeFlush()
}
