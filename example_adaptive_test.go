package stack2d_test

import (
	"fmt"
	"time"

	"stack2d"
)

// A self-tuning stack: the controller retunes the window geometry in the
// background while the ordinary Stack/Handle API is used unchanged. Close
// stops the controller; the stack keeps working on its last geometry.
func ExampleNewAdaptive() {
	s := stack2d.NewAdaptive[int](stack2d.WithExpectedThreads(1))
	defer s.Close()
	h := s.NewHandle()
	h.Push(1)
	h.Push(2)
	v, ok := h.Pop()
	fmt.Println(v, ok)
	// Output: 2 true
}

// WithAdaptive supplies the controller policy. Here the goal is the
// smallest relaxation bound that sustains a (trivially low) throughput
// floor; the zero fields take the documented defaults.
func ExampleWithAdaptive() {
	s := stack2d.NewAdaptive[string](
		stack2d.WithWidth(4),
		stack2d.WithAdaptive(stack2d.AdaptivePolicy{
			Goal:            stack2d.GoalMinRelaxation,
			ThroughputFloor: 1,
		}),
	)
	defer s.Close()
	fmt.Println(s.Controller().Policy().Goal)
	// Output: min-relaxation
}

// A latency-targeted stack: the controller steers on the structure's own
// sampled P99 (1 operation in 64 is timed on the hot path) and tightens
// semantics whenever the latency budget allows. The decision time series
// is available from the controller.
func ExampleWithAdaptive_latencyTarget() {
	s := stack2d.NewAdaptive[int](stack2d.WithAdaptive(stack2d.AdaptivePolicy{
		Goal:          stack2d.GoalLatencyTarget,
		LatencyTarget: 5 * time.Millisecond,
		KCeiling:      1024,
	}))
	defer s.Close()
	h := s.NewHandle()
	for i := 0; i < 1000; i++ {
		h.Push(i)
		h.Pop()
	}
	pol := s.Controller().Policy()
	fmt.Println(pol.Goal, pol.LatencyTarget, s.K() <= 1024)
	// Output: latency-target 5ms true
}

// A self-tuning queue: AdaptiveQueue wraps the 2D-Queue with the same
// controller; the Queue/QueueHandle API applies unchanged.
func ExampleNewAdaptiveQueue() {
	q := stack2d.NewAdaptiveQueue[string](stack2d.WithExpectedThreads(1))
	defer q.Close()
	h := q.NewHandle()
	h.Enqueue("first")
	h.Enqueue("second")
	v, ok := h.Dequeue()
	fmt.Println(v, ok, q.Len())
	// Output: first true 1
}

// WithAdaptive supplies an AdaptiveQueue's controller policy too; here the
// controller minimises work per operation (window moves + probes — the
// energy proxy) above a throughput floor.
func ExampleNewAdaptiveQueue_policy() {
	q := stack2d.NewAdaptiveQueue[int](
		stack2d.WithWidth(2),
		stack2d.WithAdaptive(stack2d.AdaptivePolicy{
			Goal:            stack2d.GoalEnergyPerOp,
			ThroughputFloor: 1,
		}),
	)
	defer q.Close()
	h := q.NewHandle()
	h.Enqueue(42)
	v, ok := h.Dequeue()
	fmt.Println(v, ok, q.Controller().Policy().Goal)
	// Output: 42 true energy-per-op
}
