package director

import (
	"fmt"

	"stack2d/internal/core"
	"stack2d/internal/seqspec"
	"stack2d/internal/twodqueue"
)

// Exact trace replay: drive the real structure through a seqspec explorer
// trace (counterexample or witness), operation by operation, and record the
// interval history the trace realises.
//
// Replay is sequential — one handle, no director concurrency — because the
// explorer's traces are sequential histories: the k-out-of-order bound of
// Theorem 1 is already violated (or realised) by single-threaded schedules
// that steer sub-structure choice, which is exactly what the explorer
// searches over. What the explorer cannot do is run the real compiled
// data path; replay closes that gap. Steering works through
// Handle.SetAnchor: with RandomHops = 0 and no concurrency, an operation
// lands on its anchor whenever the anchor is window-valid, and the
// explorer's model moves its windows by the same deterministic rules as the
// real structure, so every step's Sub is window-valid when its turn comes.
// The replay verifies this rather than assuming it: each pop must return
// exactly the label the trace promises.

// ReplayStackTrace drives a fresh core.Stack with the given geometry
// through steps and returns the realised interval history (zero-slack,
// non-overlapping intervals). The geometry must match the exploration that
// produced the trace; RandomHops must be 0 for steering to be exact. An
// error reports the first step whose outcome diverges from the trace.
func ReplayStackTrace(cfg core.Config, steps []seqspec.ExploreStep) ([]seqspec.IntervalOp, error) {
	s, err := core.New[uint64](cfg)
	if err != nil {
		return nil, err
	}
	h := s.NewHandle()
	return replay(cfg, "stack", steps, h.SetAnchor, h.Push, h.Pop)
}

// ReplayQueueTrace is ReplayStackTrace's 2D-Queue counterpart (OpPush =
// enqueue, OpPop = dequeue, as in seqspec.ExploreQueue traces).
func ReplayQueueTrace(cfg twodqueue.Config, steps []seqspec.ExploreStep) ([]seqspec.IntervalOp, error) {
	q, err := twodqueue.New[uint64](cfg)
	if err != nil {
		return nil, err
	}
	h := q.NewHandle()
	return replay(cfg, "queue", steps, h.SetAnchor, h.Enqueue, h.Dequeue)
}

// replay is the loop both replays run over one handle of a fresh
// structure: before each step it anchors the handle at the step's
// sub-structure, then pushes the step's label or pops and checks the label
// against the trace.
func replay(cfg core.Config, structure string, steps []seqspec.ExploreStep,
	anchor func(int), push func(uint64), pop func() (uint64, bool)) ([]seqspec.IntervalOp, error) {
	if cfg.RandomHops != 0 {
		return nil, fmt.Errorf("director: trace replay needs RandomHops=0, got %d", cfg.RandomHops)
	}
	ops := make([]seqspec.Op, 0, len(steps))
	for i, st := range steps {
		anchor(st.Sub)
		if st.Push {
			push(uint64(st.Value))
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: uint64(st.Value)})
			continue
		}
		v, ok := pop()
		if !ok {
			return nil, fmt.Errorf("director: step %d (%v): real %s empty, trace expects label %d", i, st, structure, st.Value)
		}
		if v != uint64(st.Value) {
			return nil, fmt.Errorf("director: step %d (%v): real %s popped %d, trace expects %d", i, st, structure, v, st.Value)
		}
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v})
	}
	return seqspec.SequentialIntervals(ops), nil
}
