package sim

import (
	"testing"

	"stack2d/internal/core"
)

// TestSegmentsRecordLatency: the segments must time every completed
// operation into the OpStats histogram, deterministically, so the
// latency-goal controller has a signal in simulation.
func TestSegmentsRecordLatency(t *testing.T) {
	m := DefaultMachine()
	cfg := core.Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 2}
	stack, err := TwoDSegment(m, cfg, 8, 50000, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	queue, err := TwoDQueueSegment(m, cfg, 8, 50000, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range map[string]core.OpStats{"stack": stack, "queue": queue} {
		var samples uint64
		for _, b := range w.Latency {
			samples += b
		}
		if samples != w.Ops() {
			t.Fatalf("%s: %d latency samples for %d ops (every op must be timed)", name, samples, w.Ops())
		}
	}
	// Determinism: the histogram is part of the reproducible segment output.
	again, err := TwoDSegment(m, cfg, 8, 50000, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Latency != stack.Latency {
		t.Fatal("latency histogram not deterministic across identical segments")
	}
}
