package stack2d

import (
	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/twodqueue"
)

// AdaptiveQueue is a 2D-Queue whose window geometry is retuned continuously
// at runtime by the same feedback controller that drives Adaptive stacks:
// under contention it widens (more relaxation, more throughput), under
// light load it narrows (tighter FIFO semantics, cheaper searches). It
// embeds Queue, so the whole Queue and QueueHandle API applies unchanged;
// K() and Config() report the geometry active at the call.
//
// Create with NewAdaptiveQueue; call Close when done to stop the controller
// goroutine (operations remain usable after Close, the geometry just stops
// adapting).
type AdaptiveQueue[T any] struct {
	Queue[T]
	ctrl *adapt.Controller
}

// NewAdaptiveQueue builds a self-tuning 2D-Queue and starts its controller.
// Structural options (WithQueueWidth, WithQueueDepth, ...) set the
// *initial* geometry exactly as for NewQueue; WithQueueAdaptive supplies
// the controller policy (defaulted when absent). Invalid combinations
// panic, as in NewQueue; use NewAdaptiveQueueWithConfig to handle errors.
func NewAdaptiveQueue[T any](opts ...QueueOption) *AdaptiveQueue[T] {
	b := applyQueueOptions(opts)
	pol := DefaultAdaptivePolicy()
	if b.policy != nil {
		pol = *b.policy
	}
	a, err := NewAdaptiveQueueWithConfig[T](resolveQueueConfig(b), pol)
	if err != nil {
		panic(err)
	}
	// Observer before placement, as in NewQueue: the construction
	// placement event must reach it.
	if b.observer != nil {
		a.inner.SetObserver(b.observer)
	}
	if b.placePolicy != nil {
		a.inner.SetPlacement(b.placePolicy, b.placeSockets)
	}
	return a
}

// NewAdaptiveQueueWithConfig builds a self-tuning queue from an explicit
// initial configuration and controller policy, returning an error on
// invalid parameters. The controller is started before returning.
func NewAdaptiveQueueWithConfig[T any](cfg QueueConfig, pol AdaptivePolicy) (*AdaptiveQueue[T], error) {
	inner, err := twodqueue.New[T](cfg)
	if err != nil {
		return nil, err
	}
	ctrl, err := adapt.New(inner, pol)
	if err != nil {
		return nil, err
	}
	a := &AdaptiveQueue[T]{ctrl: ctrl}
	a.inner = inner
	ctrl.Start()
	return a, nil
}

// Controller returns the queue's feedback controller, for reading the
// decision history or pausing/resuming adaptation (Stop/Start).
func (a *AdaptiveQueue[T]) Controller() *AdaptiveController { return a.ctrl }

// Close stops the controller goroutine. The queue itself stays fully
// usable; it simply keeps its last geometry. Idempotent.
func (a *AdaptiveQueue[T]) Close() { a.ctrl.Stop() }

// Reconfigure swaps the window geometry by hand. Note that a running
// controller may immediately retune it; Stop the controller (or Close) for
// manual control.
func (a *AdaptiveQueue[T]) Reconfigure(cfg QueueConfig) error { return a.inner.Reconfigure(cfg) }

// StatsSnapshot aggregates the operation counters of every handle of this
// queue — the controller's input signal, exposed for observability.
func (a *AdaptiveQueue[T]) StatsSnapshot() core.OpStats { return a.inner.StatsSnapshot() }
