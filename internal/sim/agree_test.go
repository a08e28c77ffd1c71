package sim

import (
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/xrand"
)

// TestStackSegmentAgreesWithNative is the simulator's license as evidence:
// at P = 1, from the native start state (empty slots, ceiling at depth),
// the stack segment and a native core.Stack handle driven through the same
// op sequence report identical OpStats, apart from Latency (the segment
// times every op in cycles, the handle samples wall time). Both walk
// core.WindowHandle.Search on the same handle RNG stream, so a visitor, a
// window move or a counter that drifts from the native code shows here.
func TestStackSegmentAgreesWithNative(t *testing.T) {
	const seed, horizon = 11, 200000
	var covered core.OpStats
	for _, cfg := range []core.Config{
		{Width: 4, Depth: 4, Shift: 4, RandomHops: 0},
		{Width: 4, Depth: 4, Shift: 4, RandomHops: 2},
		{Width: 3, Depth: 6, Shift: 2, RandomHops: 1},
		core.DefaultConfig(2),
	} {
		got, err := stackSegment(DefaultMachine(), cfg, 1, horizon, seed, nil, false, start{0, cfg.Depth})
		if err != nil {
			t.Fatal(err)
		}
		h := core.MustNew[int](cfg).NewHandle()
		rng := xrand.New(seed) // thread 0's op-choice stream
		for i := uint64(0); i < got.Ops(); i++ {
			if rng.Bool() {
				h.Push(0)
			} else {
				h.Pop()
			}
		}
		want := h.Stats()
		got.Latency, want.Latency = [core.NumLatencyBuckets]uint64{}, [core.NumLatencyBuckets]uint64{}
		if got != want {
			t.Fatalf("%+v: simulated and native counters differ\nsim:    %+v\nnative: %+v", cfg, got, want)
		}
		t.Logf("%+v: %d ops agree (%d probes, %d hops, %d raises, %d lowers, %d empty pops)",
			cfg, got.Ops(), got.Probes, got.RandomHops, got.WindowRaises, got.WindowLowers, got.EmptyPops)
		covered.Add(got)
	}
	if covered.RandomHops == 0 || covered.WindowRaises == 0 || covered.WindowLowers == 0 || covered.EmptyPops == 0 {
		t.Fatalf("the op sequences never exercised every counter: %+v", covered)
	}
}
