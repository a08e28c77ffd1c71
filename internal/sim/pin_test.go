package sim

import (
	"testing"

	"stack2d/internal/core"
)

// TestSimulatedOutputsPinned pins exact multi-thread results of the
// simulator: throughput for every Figure 2 algorithm at P = 4 and 16, for
// every Figure 1 algorithm at one k, and the work counters of one
// simulated 2D-Queue. The scheduler's pick rule (smallest clock, ties to
// the lowest id) decides every interleaving, so a scheduler that is
// deterministic but picks differently moves these values; comparing two
// runs of one build (TestPlacedSegmentsDeterministic) cannot see that.
func TestSimulatedOutputsPinned(t *testing.T) {
	m := DefaultMachine()
	const horizon = 20000
	for _, c := range []struct {
		alg  AlgoName
		p    int
		want float64
	}{
		{SimTwoD, 4, 117.5},
		{SimRandom, 4, 45.7},
		{SimElimination, 4, 26.85},
		{SimTreiber, 4, 8.5},
		{SimTwoD, 16, 471.2},
		{SimRandom, 16, 88.75},
		{SimElimination, 16, 4},
		{SimTreiber, 16, 1.8},
	} {
		got, err := Throughput(m, c.alg, c.p, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Throughput(%s, P=%d) = %v, want %v", c.alg, c.p, got, c.want)
		}
	}
	if n := len(Algos()); n != 4 {
		t.Errorf("Algos() has %d entries, the pin covers 4", n)
	}

	const k, p = 1024, 8
	fig1 := map[AlgoName]float64{SimTwoD: 209.85, SimKRobin: 75.25, SimKSegment: 84.25}
	for _, alg := range Figure1Algos() {
		want, ok := fig1[alg]
		if !ok {
			t.Errorf("Figure1Algos() entry %s has no pinned value", alg)
			continue
		}
		got, err := Figure1Throughput(m, alg, k, p, horizon)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Figure1Throughput(%s, k=%d, P=%d) = %v, want %v", alg, k, p, got, want)
		}
	}

	st, err := TwoDQueueSegment(m, core.DefaultConfig(16), 16, horizon, 7, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pushes != 2211 || st.Pops != 2229 || st.Probes != 7880 || st.CASFailures != 157 {
		t.Errorf("TwoDQueueSegment(P=16): pushes/pops/probes/CAS failures = %d/%d/%d/%d, want 2211/2229/7880/157",
			st.Pushes, st.Pops, st.Probes, st.CASFailures)
	}
}
