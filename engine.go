package stack2d

import (
	"stack2d/internal/adapt"
	"stack2d/internal/elimination"
	"stack2d/internal/engine"
	"stack2d/internal/relax"
)

// SelectorPolicy configures the backend selector of an Engine: the
// semantics budget it enforces and the contention/symmetry thresholds at
// which it exchanges the live implementation. It is the backend-level
// sibling of AdaptivePolicy — that one retunes one structure's geometry,
// this one decides which structure should be live at all. See the field
// docs on the underlying type.
type SelectorPolicy = adapt.SelectorPolicy

// BackendSelector drives an Engine's backend choice; see SelectorPolicy
// and the underlying type for Step/History/SetKBudget.
type BackendSelector = adapt.Selector

// Swap reasons a BackendSelector reports (engine swap records and the
// selector history carry them verbatim).
const (
	ReasonKBudgetZero     = adapt.ReasonKBudgetZero
	ReasonKBudgetExceeded = adapt.ReasonKBudgetExceeded
	ReasonSymmetricStorm  = adapt.ReasonSymmetricStorm
	ReasonMixedLoad       = adapt.ReasonMixedLoad
)

// SwapRecord describes one completed backend exchange; see the field docs
// on the underlying type.
type SwapRecord = engine.SwapRecord

// Engine is a stack whose implementation is exchanged at runtime: a
// 2D-Stack (built from the usual structural options) fronts a registry of
// alternative backends — an elimination stack for symmetric contention
// storms and a strict Treiber stack for a collapsed semantics budget —
// behind one epoch-pinned switch. Operations never fail or stall more
// than a migration takes; items survive every swap; and the whole run
// stays k-distance-checkable with the documented budget (the largest
// bound of any backend that was active plus SwapDisplacementBound).
//
// Create with NewEngine; WithBackendSelection starts an automatic
// selector, otherwise drive swaps by hand with SwapTo. Close stops the
// selector goroutine (the engine stays fully usable on its last backend).
type Engine[T any] struct {
	sw  *engine.Switcher[T]
	sel *adapt.Selector
}

// NewEngine builds a hot-swappable stack: the structural options
// configure the initial 2D backend exactly as for New, and elimination
// and strict alternatives are registered alongside it. Invalid
// combinations panic, as in New. It builds relax backends rather than a
// Stack, so it reads only the structural options (WithExpectedThreads,
// WithRelaxation, WithWidth, WithDepth, WithShift, WithRandomHops) and
// WithBackendSelection; it ignores WithObserver, WithPlacement,
// WithOpBuffer and WithAdaptive.
func NewEngine[T any](opts ...Option) *Engine[T] {
	b := applyOptions(opts)
	twod, err := relax.NewTwoDBackend[T](resolveConfig(b))
	if err != nil {
		panic(err)
	}
	sw, err := engine.New[T](twod)
	if err != nil {
		panic(err)
	}
	elim, err := relax.NewEliminationBackend[T](elimination.DefaultConfig(b.p))
	if err != nil {
		panic(err)
	}
	if err := sw.Register(elim); err != nil {
		panic(err)
	}
	if err := sw.Register(relax.NewTreiberBackend[T]()); err != nil {
		panic(err)
	}
	e := &Engine[T]{sw: sw}
	if b.selector != nil {
		sel, err := adapt.NewSelector(sw, *b.selector)
		if err != nil {
			panic(err)
		}
		e.sel = sel
		sel.Start()
	}
	return e
}

// EngineHandle is a per-goroutine operation context of an Engine; it
// survives backend swaps transparently. Not safe for concurrent use of
// the same handle.
type EngineHandle[T any] struct {
	h relax.Handle[T]
}

// NewHandle returns a fresh handle.
func (e *Engine[T]) NewHandle() *EngineHandle[T] {
	return &EngineHandle[T]{h: e.sw.NewHandle()}
}

// Push adds v to the active backend.
func (h *EngineHandle[T]) Push(v T) { h.h.Push(v) }

// Pop removes a value from the active backend; ok is false on empty.
func (h *EngineHandle[T]) Pop() (v T, ok bool) { return h.h.Pop() }

var _ Interface[int] = (*EngineHandle[int])(nil)

// ActiveBackend returns the catalogue name of the live backend
// ("2D-stack", "elimination", "treiber").
func (e *Engine[T]) ActiveBackend() string { return e.sw.ActiveBackend() }

// Backends returns the registered backend names.
func (e *Engine[T]) Backends() []string { return e.sw.Backends() }

// SwapTo makes the named backend live, migrating any residual items;
// reason is recorded in the swap history. No-op when already active.
func (e *Engine[T]) SwapTo(name, reason string) error {
	return e.sw.SwapBackend(name, reason)
}

// Swaps returns the completed swap records, in order.
func (e *Engine[T]) Swaps() []SwapRecord { return e.sw.Swaps() }

// K returns the semantics bound of the engine's history: the largest
// k-out-of-order bound of any backend that has been live. Add
// SwapDisplacementBound for a checker budget spanning swaps.
func (e *Engine[T]) K() int64 { return e.sw.KBound() }

// SwapDisplacementBound is the cumulative checker allowance the swap
// migrations added.
func (e *Engine[T]) SwapDisplacementBound() int64 { return e.sw.SwapDisplacementBound() }

// Len returns the live backend's approximate population.
func (e *Engine[T]) Len() int { return e.sw.Len() }

// Drain removes and returns all items; teardown only.
func (e *Engine[T]) Drain() []T { return e.sw.Drain() }

// Selector returns the automatic backend selector, or nil when the
// engine was built without WithBackendSelection. Use it to read the
// decision history or to move the semantics budget at runtime
// (SetKBudget).
func (e *Engine[T]) Selector() *BackendSelector { return e.sel }

// Close stops the selector goroutine, if any. The engine stays fully
// usable on its last backend. Idempotent.
func (e *Engine[T]) Close() {
	if e.sel != nil {
		e.sel.Stop()
	}
}
