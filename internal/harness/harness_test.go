package harness

import (
	"strings"
	"testing"
	"time"

	"stack2d/internal/relax"
)

func quickWorkload(p int) Workload {
	return Workload{
		Workers:   p,
		Duration:  20 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   1024,
		Seed:      42,
	}
}

// of is the Factory of one backend constructor call.
func of[C any](mk func(C) (relax.Backend[uint64], error), cfg C) Factory {
	return func() (relax.Backend[uint64], error) { return mk(cfg) }
}

func treiber() (relax.Backend[uint64], error) { return relax.NewTreiberBackend[uint64](), nil }

func TestWorkloadValidate(t *testing.T) {
	cases := []struct {
		name string
		w    Workload
		ok   bool
	}{
		{"default", DefaultWorkload(4), true},
		{"no workers", Workload{Workers: 0, Duration: time.Millisecond}, false},
		{"no duration", Workload{Workers: 1}, false},
		{"bad ratio", Workload{Workers: 1, Duration: time.Millisecond, PushRatio: 1.5}, false},
		{"negative prefill", Workload{Workers: 1, Duration: time.Millisecond, Prefill: -1}, false},
		{"op count without duration", Workload{Workers: 1, Ops: 10}, true},
		{"negative op count", Workload{Workers: 1, Duration: time.Millisecond, Ops: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.w.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestRunProducesOps(t *testing.T) {
	for _, alg := range relax.Figure2Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := Run(defaultAt(alg, 2), quickWorkload(2))
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("run completed zero operations")
			}
			if res.Throughput <= 0 {
				t.Fatalf("throughput = %g", res.Throughput)
			}
			if res.Ops != res.Pushes+res.Pops+res.EmptyPops {
				t.Fatalf("op accounting inconsistent: %+v", res)
			}
		})
	}
}

func TestRunRejectsBadWorkload(t *testing.T) {
	if _, err := Run(treiber, Workload{}); err == nil {
		t.Fatal("Run accepted zero workload")
	}
	if _, err := Run(treiber, Workload{Ops: 10}); err == nil {
		t.Fatal("Run accepted an op-counted workload with no workers")
	}
	w := quickWorkload(1)
	w.Ops = -1
	if _, err := Run(treiber, w); err == nil {
		t.Fatal("Run accepted negative op count")
	}
}

func TestRunOpsDeterministicCounts(t *testing.T) {
	const p, ops = 4, 500
	for _, alg := range relax.Figure2Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			w := quickWorkload(p)
			w.Ops = ops
			res, err := Run(defaultAt(alg, p), w)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != p*ops {
				t.Fatalf("Ops = %d, want %d", res.Ops, p*ops)
			}
		})
	}
}

func TestRunPinThreads(t *testing.T) {
	// Workers locked to OS threads run the same loop: exact op counts.
	w := quickWorkload(2)
	w.Ops, w.PinThreads = 300, true
	res, err := Run(of(relax.NewTwoDBackend[uint64], relax.TwoDConfigForK(256, 2)), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 2*300 {
		t.Fatalf("Ops = %d, want %d", res.Ops, 2*300)
	}
}

func TestRunOpsPopulationConsistent(t *testing.T) {
	// After a deterministic run, the population must equal prefill +
	// pushes - successful pops. Run doesn't expose the backend, so
	// re-verify through the uncounted handles a run drives.
	w := quickWorkload(2)
	b, err := relax.NewTwoDBackend[uint64](relax.TwoDConfigForK(256, 2))
	if err != nil {
		t.Fatal(err)
	}
	pre := relax.NewUncountedHandle(b)
	for i := 0; i < w.Prefill; i++ {
		pre.Push(uint64(i) + 1)
	}
	worker := relax.NewUncountedHandle(b)
	pushes, pops := 0, 0
	for n := 0; n < 4000; n++ {
		if n%2 == 0 {
			worker.Push(uint64(1<<40) + uint64(n))
			pushes++
		} else if _, ok := worker.Pop(); ok {
			pops++
		}
	}
	want := w.Prefill + pushes - pops
	if got := b.Len(); got != want {
		t.Fatalf("population = %d, want %d", got, want)
	}
}

func TestRunQualityMeasuresStrictZero(t *testing.T) {
	// A strict stack driven by one worker must score mean error 0.
	w := quickWorkload(1)
	w.Duration = 10 * time.Millisecond
	res, err := RunQuality(treiber, w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Count == 0 {
		t.Fatal("quality run recorded no pops")
	}
	if res.Quality.Mean() != 0 {
		t.Fatalf("treiber mean error = %g, want 0", res.Quality.Mean())
	}
}

func TestRunQualityRelaxedNonZero(t *testing.T) {
	// A very relaxed 2D-Stack under a single worker still spreads items
	// across sub-stacks, so error distances must be observed.
	w := quickWorkload(1)
	res, err := RunQuality(of(relax.NewTwoDBackend[uint64], relax.TwoDConfigForK(4096, 1)), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Count == 0 {
		t.Fatal("quality run recorded no pops")
	}
	if res.Quality.Mean() == 0 {
		t.Fatal("heavily relaxed stack scored perfect LIFO; oracle wiring suspect")
	}
}

// TestFigure1FactoryConfiguresBudget checks that the Figure 1 sweep's
// structures (relax.NewBackendForK) stay within each budget, and that
// Measure reports the built backend's algorithm and bound.
func TestFigure1FactoryConfiguresBudget(t *testing.T) {
	w := Workload{Workers: 1, Ops: 10, PushRatio: 0.5, Seed: 1}
	for _, alg := range relax.Figure1Algorithms() {
		for _, k := range []int64{8, 64, 1024} {
			f := func() (relax.Backend[uint64], error) { return relax.NewBackendForK[uint64](alg, k, 4) }
			pt, err := Measure(f, w, SweepConfig{Repeats: 1})
			if err != nil {
				t.Fatal(err)
			}
			if pt.Algorithm != alg || pt.K < 0 || pt.K > k {
				t.Errorf("%v k=%d: measured %v with bound %d", alg, k, pt.Algorithm, pt.K)
			}
		}
	}
}

// TestFigure2FactoryNames checks that a run is named after the algorithm
// of the backend it built.
func TestFigure2FactoryNames(t *testing.T) {
	w := Workload{Workers: 1, Ops: 10, PushRatio: 0.5, Seed: 1}
	for _, alg := range relax.Figure2Algorithms() {
		res, err := Run(defaultAt(alg, 4), w)
		if err != nil {
			t.Fatal(err)
		}
		if res.Phase.Name != alg.String() {
			t.Errorf("run name %q != algorithm %q", res.Phase.Name, alg.String())
		}
	}
}

func TestFigure1SweepSmoke(t *testing.T) {
	sc := SweepConfig{
		Workload: quickWorkload(2),
		Repeats:  1,
		Quality:  true,
	}
	sc.Workload.Duration = 5 * time.Millisecond
	points, err := Figure1Sweep([]int64{16, 64}, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(relax.Figure1Algorithms()) * 2
	if len(points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(points), wantPoints)
	}
	for _, pt := range points {
		if pt.Throughput.Mean <= 0 {
			t.Errorf("%v k=%d: zero throughput", pt.Algorithm, pt.X)
		}
	}
	out := RenderPoints(points, "k")
	if !strings.Contains(out, "2D-stack") || !strings.Contains(out, "k-segment") {
		t.Fatalf("rendered table missing series:\n%s", out)
	}
}

func TestFigure2SweepSmoke(t *testing.T) {
	sc := SweepConfig{
		Workload: quickWorkload(1),
		Repeats:  1,
	}
	sc.Workload.Duration = 5 * time.Millisecond
	points, err := Figure2Sweep([]int{1, 2}, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := len(relax.Figure2Algorithms()) * 2
	if len(points) != wantPoints {
		t.Fatalf("got %d points, want %d", len(points), wantPoints)
	}
	out := RenderPoints(points, "P")
	for _, name := range []string{"treiber", "elimination", "random-c2"} {
		if !strings.Contains(out, name) {
			t.Fatalf("rendered table missing %q:\n%s", name, out)
		}
	}
}

func TestDefaultSweepAxes(t *testing.T) {
	if len(Figure1Ks()) < 5 {
		t.Fatal("Figure1Ks too short for a sweep")
	}
	prev := int64(0)
	for _, k := range Figure1Ks() {
		if k <= prev {
			t.Fatalf("Figure1Ks not increasing: %v", Figure1Ks())
		}
		prev = k
	}
	ps := Figure2Ps()
	if ps[0] != 1 || ps[len(ps)-1] != 16 {
		t.Fatalf("Figure2Ps should span 1..16: %v", ps)
	}
}
