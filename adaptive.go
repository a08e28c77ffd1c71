package stack2d

import (
	"stack2d/internal/adapt"
	"stack2d/internal/core"
)

// AdaptivePolicy configures the feedback controller of an Adaptive stack:
// the goal (maximise throughput under a k ceiling, or minimise k above a
// throughput floor), the sampling tick, the contention/search-cost
// thresholds and the geometry bounds. The zero value selects the defaults;
// see the field documentation in internal/adapt.Policy (this is an alias).
type AdaptivePolicy = adapt.Policy

// AdaptiveController is the runtime self-tuning loop attached to an
// Adaptive stack; it exposes the decision time series (History), the
// geometry ladder and manual stepping for simulations.
type AdaptiveController = adapt.Controller

// AdaptiveTick is one row of the controller's time series.
type AdaptiveTick = adapt.TickRecord

// Controller goals, re-exported for policy construction.
const (
	// GoalMaxThroughput maximises throughput while the active geometry's
	// Theorem 1 bound stays at or below AdaptivePolicy.KCeiling.
	GoalMaxThroughput = adapt.MaxThroughput
	// GoalMinRelaxation minimises the relaxation bound while throughput
	// stays above AdaptivePolicy.ThroughputFloor.
	GoalMinRelaxation = adapt.MinRelaxation
	// GoalLatencyTarget drives the structure's own sampled P99 operation
	// latency to at most AdaptivePolicy.LatencyTarget, spending spare
	// latency budget on tighter semantics. The latency signal is sampled
	// on the operation hot paths (1 in 64 operations is timed) and flows
	// through StatsSnapshot like every other counter.
	GoalLatencyTarget = adapt.TargetLatency
	// GoalEnergyPerOp minimises the structure's work per operation —
	// window moves plus probes, the coherence-traffic proxy — while
	// throughput stays above AdaptivePolicy.ThroughputFloor.
	GoalEnergyPerOp = adapt.MinEnergy
)

// DefaultAdaptivePolicy returns the controller defaults: the
// max-throughput goal with an uncapped ladder sized for GOMAXPROCS.
func DefaultAdaptivePolicy() AdaptivePolicy { return adapt.DefaultPolicy() }

// Adaptive is a 2D-Stack whose window geometry is retuned continuously at
// runtime by a feedback controller: under contention it widens (more
// relaxation, more throughput), under light load it narrows (tighter
// semantics, cheaper searches). It embeds Stack, so the whole Stack and
// Handle API — including the pooled Push/Pop convenience methods and
// Interface[T] — applies unchanged; K() and Config() report the geometry
// active at the call.
//
// Create with NewAdaptive; call Close when done to stop the controller
// goroutine (operations remain usable after Close, the geometry just stops
// adapting).
type Adaptive[T any] struct {
	Stack[T]
	ctrl *adapt.Controller
}

// NewAdaptive builds a self-tuning 2D-Stack and starts its controller.
// Structural options (WithWidth, WithRelaxation, ...) set the *initial*
// geometry exactly as for New; WithAdaptive supplies the controller policy
// (defaulted when absent). Invalid combinations panic, as in New; use
// NewAdaptiveWithConfig to handle errors.
func NewAdaptive[T any](opts ...Option) *Adaptive[T] {
	b := applyOptions(opts)
	a, err := NewAdaptiveWithConfig[T](resolveConfig(b), b.policy)
	if err != nil {
		panic(err)
	}
	b.applySettings(a.inner, &a.opBuffer)
	return a
}

// NewAdaptiveWithConfig builds a self-tuning stack from an explicit initial
// configuration and controller policy, returning an error on invalid
// parameters. The controller is started before returning.
func NewAdaptiveWithConfig[T any](cfg Config, pol AdaptivePolicy) (*Adaptive[T], error) {
	inner, err := core.New[T](cfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := adapt.New(inner, pol)
	if err != nil {
		return nil, err
	}
	a := &Adaptive[T]{ctrl: ctrl}
	a.inner = inner
	a.pool.New = func() any { return inner.NewHandle() }
	ctrl.Start()
	return a, nil
}

// Controller returns the stack's feedback controller, for reading the
// decision history or pausing/resuming adaptation (Stop/Start).
func (a *Adaptive[T]) Controller() *AdaptiveController { return a.ctrl }

// Close stops the controller goroutine. The stack itself stays fully
// usable; it simply keeps its last geometry. Idempotent.
func (a *Adaptive[T]) Close() { a.ctrl.Stop() }

// Reconfigure swaps the window geometry by hand. Note that a running
// controller may immediately retune it; Stop the controller (or Close) for
// manual control.
func (a *Adaptive[T]) Reconfigure(cfg Config) error { return a.inner.Reconfigure(cfg) }

// StatsSnapshot aggregates the operation counters of every handle of this
// stack — the controller's input signal, exposed for observability.
func (a *Adaptive[T]) StatsSnapshot() core.OpStats { return a.inner.StatsSnapshot() }

var _ Interface[int] = (*Adaptive[int])(nil)
