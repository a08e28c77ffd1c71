package relax

import (
	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/ksegment"
	"stack2d/internal/msqueue"
	"stack2d/internal/multistack"
	"stack2d/internal/treiber"
	"stack2d/internal/twodqueue"
)

// The backend contract: one control-plane surface over every structure in
// the catalogue. Backend is the interface that lets the controller, the
// conformance harness and the observability plane see the whole zoo, and
// the one every benchmark and command builds its designs through.
// engine.Switcher composes Backends into a hot-swappable structure, and
// internal/adapt's Selector picks among them by semantics budget and
// observed signals.

// Ops is the operation surface every catalogue structure's handles share.
type Ops[T any] interface {
	Push(v T)
	Pop() (v T, ok bool)
}

// Handle is the per-goroutine operation context of a Backend. Handles are
// not safe for concurrent use; the Backend is, across handles. PushBatch
// means exactly what a loop of Push over vs in index order means (for
// LIFO, vs[len-1] ends on top; for FIFO, vs[0] is the batch's front), and
// counts len(vs) Pushes; a structure with a batch path (the 2D-Stack's
// PushBatch, the 2D-Queue's EnqueueBatch, the Treiber slab, elimination's
// central stack) takes it, the others loop. Flush publishes the handle's
// pending counters to the backend's registry (a core.Registry, flushed
// every 64 operations like core's own handles): call it when a worker
// quiesces so a sampler sees final totals.
type Handle[T any] interface {
	Ops[T]
	PushBatch(vs []T)
	Flush()
}

// NewUncountedHandle returns a handle of b that publishes no counters of
// its own: the 2D-Stack's or the 2D-Queue's own handle (which count
// intrinsically, in the window registry), the Treiber stack or the
// Michael–Scott queue itself, or a zoo structure's handle with no stats
// pointer. It is the handle a throughput measurement drives: the counting
// adapters' bookkeeping costs the baselines up to about a tenth of their
// measured throughput (DESIGN.md §9). A backend outside the catalogue (an
// engine.Switcher) has only counting handles, and gets one.
func NewUncountedHandle[T any](b Backend[T]) Ops[T] {
	if u, ok := b.(interface{ uncounted() Ops[T] }); ok {
		return u.uncounted()
	}
	return b.NewHandle()
}

// Backend is the uniform contract the relaxation zoo is adapted behind.
//
// KBound is the backend's semantics budget: the k-out-of-order bound its
// discipline guarantees (0 for the strict structures, the configured
// bound for the relaxed ones, the k-robin estimate for round-robin), or
// -1 when no deterministic bound exists (the random policies). The
// budget is what the adapt layer compares against the caller's k ceiling
// and what folds into checker budgets across a swap.
//
// Backends whose geometry is tunable additionally implement
// adapt.Reconfigurable (the 2D backend does); callers discover that with
// a type assertion, exactly as adapt.Controller discovers SocketAware.
//
// Drain empties the backend and returns the items in pop order (for
// OrderLIFO: top-first), in a slice sized once from Len. It is
// quiescent-only — engine.Switcher calls it after pinned operations have
// drained.
type Backend[T any] interface {
	Algorithm() Algorithm
	KBound() int64
	NewHandle() Handle[T]
	Len() int
	Drain() []T
	StatsSnapshot() core.OpStats
}

// --- 2D-Stack ---------------------------------------------------------------

// twoDBackend adapts core.Stack. It passes adapt.Reconfigurable and
// SocketAware straight through, so the geometry controller steers it like
// it always has; StatsSnapshot uses the stack's own registry rather than
// a parallel one.
type twoDBackend[T any] struct{ s *core.Stack[T] }

// NewTwoDBackend wraps a 2D-Stack configuration as a Backend. The
// returned backend additionally implements adapt.Reconfigurable,
// adapt.SocketAware and ShrinkDisplacementBound() int64 (the migration
// allowance engine.Switcher folds into checker budgets).
func NewTwoDBackend[T any](cfg core.Config) (Backend[T], error) {
	s, err := core.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &twoDBackend[T]{s: s}, nil
}

func (b *twoDBackend[T]) Algorithm() Algorithm            { return TwoDStack }
func (b *twoDBackend[T]) KBound() int64                   { return b.s.Config().K() }
func (b *twoDBackend[T]) Len() int                        { return b.s.Len() }
func (b *twoDBackend[T]) Drain() []T                      { return b.s.Drain() }
func (b *twoDBackend[T]) StatsSnapshot() core.OpStats     { return b.s.StatsSnapshot() }
func (b *twoDBackend[T]) Config() core.Config             { return b.s.Config() }
func (b *twoDBackend[T]) Reconfigure(c core.Config) error { return b.s.Reconfigure(c) }
func (b *twoDBackend[T]) ReconfigureOnSocket(c core.Config, req int) error {
	return b.s.ReconfigureOnSocket(c, req)
}
func (b *twoDBackend[T]) ShrinkDisplacementBound() int64 { return b.s.ShrinkDisplacementBound() }

type twoDHandle[T any] struct{ h *core.Handle[T] }

func (b *twoDBackend[T]) NewHandle() Handle[T] { return twoDHandle[T]{h: b.s.NewHandle()} }
func (b *twoDBackend[T]) uncounted() Ops[T]    { return b.s.NewHandle() }

func (h twoDHandle[T]) Push(v T)            { h.h.Push(v) }
func (h twoDHandle[T]) PushBatch(vs []T)    { h.h.PushBatch(vs) }
func (h twoDHandle[T]) Pop() (v T, ok bool) { return h.h.Pop() }
func (h twoDHandle[T]) Flush()              { h.h.FlushStats() }

// --- 2D-Queue ---------------------------------------------------------------

// twoDQueueBackend adapts twodqueue.Queue (OrderFIFO: Push enqueues, Pop
// dequeues). Like the 2D-Stack's, its handles count in the queue's own
// window registry, so its counting and uncounted handles are the same.
type twoDQueueBackend[T any] struct{ q *twodqueue.Queue[T] }

// NewTwoDQueueBackend wraps a 2D-Queue configuration (KBound = cfg.K()).
func NewTwoDQueueBackend[T any](cfg twodqueue.Config) (Backend[T], error) {
	q, err := twodqueue.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &twoDQueueBackend[T]{q: q}, nil
}

func (b *twoDQueueBackend[T]) Algorithm() Algorithm        { return TwoDQueue }
func (b *twoDQueueBackend[T]) KBound() int64               { return b.q.Config().K() }
func (b *twoDQueueBackend[T]) Len() int                    { return b.q.Len() }
func (b *twoDQueueBackend[T]) Drain() []T                  { return b.q.Drain() }
func (b *twoDQueueBackend[T]) StatsSnapshot() core.OpStats { return b.q.StatsSnapshot() }
func (b *twoDQueueBackend[T]) NewHandle() Handle[T]        { return twoDQueueHandle[T]{h: b.q.NewHandle()} }
func (b *twoDQueueBackend[T]) uncounted() Ops[T]           { return b.NewHandle() }

type twoDQueueHandle[T any] struct{ h *twodqueue.Handle[T] }

func (h twoDQueueHandle[T]) Push(v T)            { h.h.Enqueue(v) }
func (h twoDQueueHandle[T]) PushBatch(vs []T)    { h.h.EnqueueBatch(vs) }
func (h twoDQueueHandle[T]) Pop() (v T, ok bool) { return h.h.Dequeue() }
func (h twoDQueueHandle[T]) Flush()              { h.h.FlushStats() }

// --- self-counting baselines (treiber, ms-queue) ----------------------------

// The strict list-based baselines count their own operation outcomes and
// CAS failures (treiber.PushStats/msqueue.EnqueueStats), so their adapter
// handles add only the registry flush. Every counting adapter below embeds
// a core.Registry of its handles (which supplies StatsSnapshot) and its
// handles embed core.Counters, the scheme core's window handles use.

type treiberBackend[T any] struct {
	core.Registry[treiberHandle[T]]
	s *treiber.Stack[T]
}

// NewTreiberBackend wraps the strict Treiber baseline (k = 0).
func NewTreiberBackend[T any]() Backend[T] {
	return &treiberBackend[T]{s: treiber.New[T]()}
}

func (b *treiberBackend[T]) Algorithm() Algorithm { return TreiberStack }
func (b *treiberBackend[T]) KBound() int64        { return 0 }
func (b *treiberBackend[T]) Len() int             { return b.s.Len() }
func (b *treiberBackend[T]) Drain() []T           { return b.s.Drain() }
func (b *treiberBackend[T]) uncounted() Ops[T]    { return b.s }
func (b *treiberBackend[T]) NewHandle() Handle[T] {
	h := &treiberHandle[T]{s: b.s}
	b.Register(h, &h.Counters)
	return h
}

type treiberHandle[T any] struct {
	core.Counters
	s *treiber.Stack[T]
}

func (h *treiberHandle[T]) Push(v T) {
	h.s.PushStats(v, &h.Count)
	h.MaybeFlush()
}

func (h *treiberHandle[T]) PushBatch(vs []T) {
	h.Count.CASFailures += h.s.PushBatch(vs)
	h.Count.Pushes += uint64(len(vs))
	h.MaybeFlush()
}

func (h *treiberHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.s.PopStats(&h.Count)
	h.MaybeFlush()
	return v, ok
}

func (h *treiberHandle[T]) Flush() { h.FlushStats() }

type msqueueBackend[T any] struct {
	core.Registry[msqueueHandle[T]]
	q *msqueue.Queue[T]
}

// NewMSQueueBackend wraps the strict Michael–Scott baseline (k = 0,
// OrderFIFO: Push enqueues, Pop dequeues).
func NewMSQueueBackend[T any]() Backend[T] {
	return &msqueueBackend[T]{q: msqueue.New[T]()}
}

func (b *msqueueBackend[T]) Algorithm() Algorithm { return MSQueue }
func (b *msqueueBackend[T]) KBound() int64        { return 0 }
func (b *msqueueBackend[T]) Len() int             { return b.q.Len() }
func (b *msqueueBackend[T]) Drain() []T           { return b.q.Drain() }
func (b *msqueueBackend[T]) uncounted() Ops[T]    { return msqueueOps[T]{b.q} }
func (b *msqueueBackend[T]) NewHandle() Handle[T] {
	h := &msqueueHandle[T]{q: b.q}
	b.Register(h, &h.Counters)
	return h
}

type msqueueHandle[T any] struct {
	core.Counters
	q *msqueue.Queue[T]
}

func (h *msqueueHandle[T]) Push(v T) {
	h.q.EnqueueStats(v, &h.Count)
	h.MaybeFlush()
}

func (h *msqueueHandle[T]) PushBatch(vs []T) {
	for _, v := range vs {
		h.Push(v)
	}
}

func (h *msqueueHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.q.DequeueStats(&h.Count)
	h.MaybeFlush()
	return v, ok
}

func (h *msqueueHandle[T]) Flush() { h.FlushStats() }

// msqueueOps is the bare queue under the catalogue's operation names.
type msqueueOps[T any] struct{ q *msqueue.Queue[T] }

func (o msqueueOps[T]) Push(v T)            { o.q.Enqueue(v) }
func (o msqueueOps[T]) Pop() (v T, ok bool) { return o.q.Dequeue() }

// --- handle-based zoo structures --------------------------------------------

// zooBackend adapts any handle-based zoo structure (elimination, ksegment,
// multistack): the inner handle is built with its SetStats pointed at the
// adapter's counters (so internal signals — probes, CAS failures — land
// there), and the adapter counts the operation outcomes itself. Its
// uncounted handle is an inner handle with no stats pointer. One type,
// three structures.
type zooBackend[T any] struct {
	core.Registry[zooCountedHandle[T]]
	alg    Algorithm
	k      int64
	mkH    func(st *core.OpStats) Ops[T]
	lenF   func() int
	drainF func() []T
}

func (b *zooBackend[T]) Algorithm() Algorithm { return b.alg }
func (b *zooBackend[T]) KBound() int64        { return b.k }
func (b *zooBackend[T]) Len() int             { return b.lenF() }
func (b *zooBackend[T]) Drain() []T           { return b.drainF() }
func (b *zooBackend[T]) uncounted() Ops[T]    { return b.mkH(nil) }
func (b *zooBackend[T]) NewHandle() Handle[T] {
	h := &zooCountedHandle[T]{}
	b.Register(h, &h.Counters)
	h.inner = b.mkH(&h.Count)
	return h
}

type zooCountedHandle[T any] struct {
	core.Counters
	inner Ops[T]
}

func (h *zooCountedHandle[T]) Push(v T) {
	h.inner.Push(v)
	h.Count.Pushes++
	h.MaybeFlush()
}

// PushBatch takes the structure's own batch push when it has one
// (elimination's, onto its central stack) and loops Push otherwise
// (k-segment, the multistacks).
func (h *zooCountedHandle[T]) PushBatch(vs []T) {
	if b, ok := h.inner.(interface{ PushBatch([]T) }); ok {
		b.PushBatch(vs)
	} else {
		for _, v := range vs {
			h.inner.Push(v)
		}
	}
	h.Count.Pushes += uint64(len(vs))
	h.MaybeFlush()
}

func (h *zooCountedHandle[T]) Pop() (v T, ok bool) {
	v, ok = h.inner.Pop()
	if ok {
		h.Count.Pops++
	} else {
		h.Count.EmptyPops++
	}
	h.MaybeFlush()
	return v, ok
}

func (h *zooCountedHandle[T]) Flush() { h.FlushStats() }

// zooHandles builds zooBackend.mkH from a zoo structure's NewHandle: each
// handle gets the stats pointer (nil for an uncounted handle).
func zooHandles[T any, H interface {
	Ops[T]
	SetStats(*core.OpStats)
}](newHandle func() H) func(*core.OpStats) Ops[T] {
	return func(st *core.OpStats) Ops[T] {
		h := newHandle()
		h.SetStats(st)
		return h
	}
}

// NewEliminationBackend wraps the elimination back-off stack (strict
// LIFO, k = 0).
func NewEliminationBackend[T any](cfg elimination.Config) (Backend[T], error) {
	s, err := elimination.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &zooBackend[T]{
		alg: EliminationStack, k: 0,
		mkH: zooHandles[T](s.NewHandle), lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewKSegmentBackend wraps a k-segment configuration (k = SegmentSize−1).
func NewKSegmentBackend[T any](cfg ksegment.Config) (Backend[T], error) {
	s, err := ksegment.New[T](cfg)
	if err != nil {
		return nil, err
	}
	return &zooBackend[T]{
		alg: KSegment, k: cfg.K(),
		mkH: zooHandles[T](s.NewHandle), lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewMultiBackend wraps a distributed multi-stack. The algorithm and
// bound follow the policy: RoundRobin is k-robin with the KRobinBound
// estimate at p threads; the random policies are unbounded (KBound -1).
func NewMultiBackend[T any](cfg multistack.Config, p int) (Backend[T], error) {
	s, err := multistack.New[T](cfg)
	if err != nil {
		return nil, err
	}
	alg, k := RandomStack, int64(-1)
	switch cfg.Policy {
	case multistack.RoundRobin:
		alg, k = KRobin, KRobinBound(cfg.Width, p)
	case multistack.RandomC2:
		alg = RandomC2Stack
	}
	return &zooBackend[T]{
		alg: alg, k: k,
		mkH: zooHandles[T](s.NewHandle), lenF: s.Len, drainF: s.Drain,
	}, nil
}

// NewDefaultBackend builds the algorithm's default configuration for p
// expected threads — the Figure 2 setups for the figure algorithms,
// DefaultConfig-style sizing for the rest. It is the constructor the
// Figure 2 sweep, the catalogue audit and the engine tests use;
// NewBackendForK sizes the k-configurable algorithms for a budget
// instead.
func NewDefaultBackend[T any](a Algorithm, p int) (Backend[T], error) {
	if p < 1 {
		p = 1
	}
	switch a {
	case TwoDStack:
		return NewTwoDBackend[T](core.DefaultConfig(p))
	case KSegment:
		return NewKSegmentBackend[T](ksegment.Config{SegmentSize: Figure2FixedWidth})
	case KRobin:
		return NewMultiBackend[T](KRobinConfigForK(Figure2K, p), p)
	case RandomStack:
		return NewMultiBackend[T](multistack.Config{Width: Figure2FixedWidth, Policy: multistack.Random}, p)
	case RandomC2Stack:
		return NewMultiBackend[T](multistack.Config{Width: Figure2FixedWidth, Policy: multistack.RandomC2}, p)
	case EliminationStack:
		return NewEliminationBackend[T](elimination.DefaultConfig(p))
	case TreiberStack:
		return NewTreiberBackend[T](), nil
	case MSQueue:
		return NewMSQueueBackend[T](), nil
	case TwoDQueue:
		return NewTwoDQueueBackend[T](twodqueue.DefaultConfig(p))
	default:
		return nil, errUnknownAlgorithm(a)
	}
}

// NewBackendForK builds the algorithm for a target relaxation budget k at
// p threads: a k-configurable algorithm through its k mapping
// (TwoDConfigForK, which sizes the 2D-Queue too, KSegmentConfigForK or
// KRobinConfigForK), every other one at NewDefaultBackend(a, p). It is
// the Figure 1 setup, and what the command-line tools build from their
// -alg, -k and -threads flags.
func NewBackendForK[T any](a Algorithm, k int64, p int) (Backend[T], error) {
	switch a {
	case TwoDStack:
		return NewTwoDBackend[T](TwoDConfigForK(k, p))
	case KSegment:
		return NewKSegmentBackend[T](KSegmentConfigForK(k))
	case KRobin:
		return NewMultiBackend[T](KRobinConfigForK(k, p), p)
	case TwoDQueue:
		return NewTwoDQueueBackend[T](TwoDConfigForK(k, p))
	default:
		return NewDefaultBackend[T](a, p)
	}
}

func errUnknownAlgorithm(a Algorithm) error {
	return &unknownAlgorithmError{a}
}

type unknownAlgorithmError struct{ a Algorithm }

func (e *unknownAlgorithmError) Error() string {
	return "relax: no backend for algorithm " + e.a.String()
}
