// Package twodqueue generalises the 2D window technique to a FIFO queue —
// the direction the paper's conclusion announces as future work ("we are
// working towards generalizing our design to work for other concurrent data
// structures").
//
// The structure mirrors the 2D-Stack: `width` Michael–Scott sub-queues with
// two windows, one per end. Each sub-queue carries two monotonic window
// counters, enqueues and dequeues completed: the Michael–Scott queue's own
// per-end counts over an immutable join floor, as the stack's sub-stack
// count sits over its base, so an operation is counted once, inside its
// sub-queue step, and each sub-queue's header has a cache line to itself.
// An Enqueue may use a sub-queue only while its enqueue count is below the
// shared GlobalEnq ceiling; a Dequeue only while its dequeue count is below
// GlobalDeq. When a full round-robin pass finds every sub-queue at its
// ceiling, the corresponding window is raised by `shift`. The search
// (locality anchor, random hops, round-robin fallback, hop-on-contention)
// is the shared core.WindowHandle.Search the stack runs; each operation
// supplies only its validity test and sub-queue step, and its window move
// or empty verdict.
//
// Relaxation: within one window epoch each sub-queue completes at most
// `depth` dequeues, so items dequeue at most (2·depth + shift)·(width − 1)
// positions out of FIFO order in sequential executions — the direct
// analogue of the stack's (corrected) Theorem 1 constant, shared so that
// one formula serves both structures (exhaustive small-geometry
// exploration realises queue distances only up to depth·(width − 1), the
// monotone ceilings never re-expose a stale front; see
// seqspec.ExploreQueue and DESIGN.md §2). Under concurrency a sub-queue
// counts an operation just after the CAS that performs it, adding up to one
// position of slack per in-flight operation (at most the number of
// concurrent handles); see K and the tests in twodqueue_test.go.
//
// # Live reconfiguration
//
// Like the stack (internal/core), the queue's geometry is not frozen at
// construction: the window parameters and the sub-queue array live behind an
// atomic pointer, every operation pins the active geometry through a
// per-handle epoch, and Reconfigure swaps in a new geometry while operations
// run. Depth/shift changes and width growth are wait-free parameter swaps;
// a width shrink waits for the superseded epoch to quiesce, then migrates
// the items stranded in dropped sub-queues back into the live window. Each
// handle also keeps the same operation counters as the stack's handles
// (probes, CAS failures, window moves), aggregated race-safely by
// Queue.StatsSnapshot — the input signals of internal/adapt's feedback
// controller, which steers the queue directly.
//
// All of that machinery — geometry and epochs, the handle registry,
// pinning, the latency sampler, stats, placement, reconfiguration, the
// observer and the op-buffer state — is the window shell the queue shares
// with the stack (core.Window and core.WindowHandle, embedded by value).
// This package supplies what is FIFO-specific: the sub-queues and their
// window counters, the two ceilings, the search visitors, the growth floors,
// the round-robin shrink handoff, the queue's buffer policy and its node
// slabs.
//
// # Node recycling
//
// Each handle carves its enqueues' Michael–Scott nodes in address order
// from slabs of 63, and the dequeue that unlinks a slab's last node
// retires the slab for its own handle's later enqueues, once the era pin
// every operation takes shows that no operation can still hold a node of
// it (slab.go, DESIGN.md §3). A balanced enqueue/dequeue mix therefore
// allocates nothing in steady state.
package twodqueue

import (
	"stack2d/internal/core"
	"stack2d/internal/msqueue"
	"stack2d/internal/pad"
	"stack2d/internal/yield"
)

// Config carries the tuning parameters; they have the same roles as the
// 2D-Stack's, and the type is the stack's (core.Config), so K, Validate
// and the adaptive controller's geometry moves serve both structures.
type Config = core.Config

// DefaultConfig mirrors the stack's high-throughput configuration for p
// expected threads.
func DefaultConfig(p int) Config { return core.DefaultConfig(p) }

// subQueue is one sub-structure: the Michael–Scott queue and its two join
// floors. Its window counters are the queue's own per-end counts over those
// immutable floors — the twin of the stack's base + count — so an operation
// is counted once, by the sub-queue step that performs it, and every
// header word an operation writes sits on the queue's one header line
// (msqueue.Queue). The header stays behind a pointer: embedded here, it
// would lose the line alignment its own allocation gives it. Slots are
// held by pointer so successive geometries can share surviving sub-queues
// without moving an item.
type subQueue[T any] struct {
	q                *msqueue.Queue[elem[T]]
	enqBase, deqBase int64 // join floors, see newSubQueue
}

// newSubQueue allocates an empty sub-queue joining the structure at the
// given counter floors. A sub-queue added by a width growth must not start
// its counters at zero: the windows have typically advanced far past zero,
// and a zero-count newcomer would be enqueue-valid for the whole distance —
// an unbounded relaxation hole. Starting at the current window floor lets it
// absorb at most `depth` operations per window, like every other sub-queue.
func newSubQueue[T any](enqFloor, deqFloor int64) *subQueue[T] {
	return &subQueue[T]{q: msqueue.New[elem[T]](), enqBase: enqFloor, deqBase: deqFloor}
}

// enqs is the sub-queue's enqueue-end window counter: its join floor plus
// its completed enqueues.
func (sq *subQueue[T]) enqs() int64 { return sq.enqBase + sq.q.Enqueued() }

// deqs is the dequeue-end window counter: the join floor plus completed
// dequeues.
func (sq *subQueue[T]) deqs() int64 { return sq.deqBase + sq.q.Dequeued() }

// Queue is a lock-free 2D relaxed FIFO queue. Create with New; obtain one
// Handle per goroutine. A Queue must not be copied.
type Queue[T any] struct {
	core.Window[T, subQueue[T]]
	// globalEnq/globalDeq are the per-end window ceilings. Unlike the
	// stack's Global they are monotone non-decreasing: both ends only ever
	// advance.
	globalEnq pad.Int64Line
	globalDeq pad.Int64Line
}

// New returns an empty 2D-Queue.
func New[T any](cfg Config) (*Queue[T], error) {
	q := &Queue[T]{}
	err := q.Init(cfg, core.Hooks[subQueue[T]]{
		Grow: q.grow,
		// Keep both ceilings at or above depth so the windows start sane
		// (the globals are monotone, so a raise-if-below suffices).
		Raise: func(depth int64) {
			core.RaiseTo(&q.globalEnq.V, depth)
			core.RaiseTo(&q.globalDeq.V, depth)
		},
		Handoff: q.handoffStranded,
	})
	if err != nil {
		return nil, err
	}
	return q, nil
}

// MustNew is New that panics on config error.
func MustNew[T any](cfg Config) *Queue[T] {
	q, err := New[T](cfg)
	if err != nil {
		panic(err)
	}
	return q
}

// Len sums sub-queue populations plus every live handle's buffered
// residents (pending enqueues and prefetched-but-undelivered values,
// BufferedItems), so op-buffered items are never phantom-invisible to
// sizing; approximate under concurrency.
func (q *Queue[T]) Len() int {
	g := q.Geometry()
	n := 0
	for i := range g.Subs {
		n += g.Subs[i].q.Len()
	}
	return n + q.BufferedItems()
}

// GlobalEnq exposes the enqueue window ceiling; diagnostics only.
func (q *Queue[T]) GlobalEnq() int64 { return q.globalEnq.V.Load() }

// GlobalDeq exposes the dequeue window ceiling; diagnostics only.
func (q *Queue[T]) GlobalDeq() int64 { return q.globalDeq.V.Load() }

// SubLens returns a snapshot of each sub-queue's population; diagnostics
// and tests.
func (q *Queue[T]) SubLens() []int {
	g := q.Geometry()
	out := make([]int, len(g.Subs))
	for i := range g.Subs {
		out[i] = g.Subs[i].q.Len()
	}
	return out
}

// Drain removes all items (via a private handle's batch dequeue, into a
// slice of Len's capacity) and returns them front-first; teardown, swap
// migration and testing helper. Handles with armed op buffers must
// FlushOps first — Drain only sees published items (buffered residents
// belong to their owning goroutines).
func (q *Queue[T]) Drain() []T {
	n := q.Len()
	return q.NewHandle().dequeueBatchInto(make([]T, 0, n), n)
}

// The two ends of the queue, as indices into a handle's locality anchors
// (core.WindowHandle.Last).
const (
	enq = 0
	deq = 1
)

// Handle is the per-goroutine operation context: the window shell's
// per-handle half (locality anchors for both ends, RNG, work counters, the
// epoch pin, the latency sampler and the op buffer) plus the queue it
// operates on. Not safe for concurrent use of the same handle; the Queue
// is fully concurrent across handles.
//
// The work counters reuse the stack's vocabulary (core.OpStats), so one
// controller reads both structures through identical signals:
// Pushes/Pops/EmptyPops count enqueues, non-empty and empty dequeues;
// CASFailures counts contended sub-queue rounds at either end;
// WindowRaises counts enqueue-end window moves and WindowLowers
// dequeue-end ones.
type Handle[T any] struct {
	core.WindowHandle[T, subQueue[T]]
	q *Queue[T]
	// slab is the slab this handle's enqueues carve nodes from, carved of
	// them so far; slabs holds the slabs its dequeues retired, oldest
	// first, each with the era read after its last unlinking CAS
	// (slab.go).
	slab   *slab[T]
	carved int
	slabs  core.Ring[*slab[T]]
}

// NewHandle returns an operation handle anchored at random sub-queues and
// registers it for quiescence tracking and stats aggregation (see
// core.Window.Register: registration is weak for the handle itself, so an
// abandoned handle is collectable).
func (q *Queue[T]) NewHandle() *Handle[T] {
	h := &Handle[T]{q: q, carved: slabNodes}
	q.Register(&h.WindowHandle, 2, core.BufferHooks[T]{Publish: h.EnqueueBatch, Refill: h.dequeueBatchInto, Return: h.returnPrefetch})
	return h
}

// SetAnchor forces both of the handle's locality anchors (enqueue and
// dequeue side) to start the next search at sub-queue idx. With
// RandomHops = 0 and no concurrent operations the next Enqueue or Dequeue
// then lands on idx whenever idx is window-valid — the property exact trace
// replay (internal/director) relies on to drive the real queue through a
// seqspec explorer trace. Out-of-range indices are re-anchored randomly by
// the next pin. Owner-goroutine only; diagnostics and directed replay, not
// a tuning knob.
func (h *Handle[T]) SetAnchor(idx int) {
	if idx < 0 {
		idx = 0
	}
	h.Last[enq] = idx
	h.Last[deq] = idx
}

// Enqueue adds v at the (relaxed) back of the queue. The window search
// (core.WindowHandle.Search) looks for a sub-queue whose enqueue count is
// below GlobalEnq; a failed single-round sub-enqueue is the contention
// verdict. When a full coverage pass finds every sub-queue at the ceiling,
// Enqueue raises the window and searches again.
func (h *Handle[T]) Enqueue(v T) {
	// The node is carved once, before the pin, like the stack's push
	// descriptor: a slab refill may move the era. A lost attempt leaves it
	// for the next.
	n := h.carve(v)
	geo := h.PinOp()
	q := h.q
	visit := func(sub *subQueue[T], global int64) core.Visit {
		if sub.enqs() >= global {
			return core.Skip
		}
		if !sub.q.TryEnqueue(n) {
			return core.Lost
		}
		h.Count.Pushes++
		return core.Done
	}
	for {
		global, _, done := h.Search(geo, enq, &q.globalEnq.V, visit)
		if done {
			h.Unpin()
			return
		}
		yield.Fire(yield.PointWindowMove)
		if q.globalEnq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowRaises++
		}
	}
}

// Dequeue removes and returns a value within the relaxation window; ok is
// false when every sub-queue was observed empty in one full pass. Dequeue-
// end window moves are counted as WindowLowers — the front-end analogue of
// the stack's downward moves — so the controller's churn signal sums both
// ends.
func (h *Handle[T]) Dequeue() (v T, ok bool) {
	geo := h.PinOp()
	q := h.q
	visit := func(sub *subQueue[T], global int64) core.Visit {
		if sub.deqs() >= global {
			return heldIfNonEmpty(sub)
		}
		old, front, contended := sub.q.TryUnlink()
		switch {
		case front != nil:
			v = h.take(old, front)
			h.Count.Pops++
			return core.Done
		case contended:
			return core.Lost // another dequeuer beat us here
		}
		return core.Skip // valid but empty: a coverage probe
	}
	for {
		global, held, done := h.Search(geo, deq, &q.globalDeq.V, visit)
		if done {
			h.Unpin()
			return v, true
		}
		if !held {
			// Full coverage saw only empty sub-queues (any non-empty one
			// was dequeue-valid and yielded nothing): report empty.
			h.Count.EmptyPops++
			h.Unpin()
			return v, false
		}
		// Items exist beyond the current window: raise it and retry.
		yield.Fire(yield.PointWindowMove)
		if q.globalDeq.V.CompareAndSwap(global, global+geo.Shift) {
			h.Count.WindowLowers++
		}
	}
}

// heldIfNonEmpty is the dequeue end's verdict on a sub-queue at the
// ceiling: Held when it still has items, which only a window raise can
// reach, Skip when it is empty.
func heldIfNonEmpty[T any](sub *subQueue[T]) core.Visit {
	if sub.q.Empty() {
		return core.Skip
	}
	return core.Held
}
