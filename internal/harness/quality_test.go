package harness

import (
	"testing"
	"time"

	"stack2d/internal/multistack"
	"stack2d/internal/relax"
)

// TestQualityOrderingAcrossDesigns asserts the structural accuracy ordering
// the paper's figures rest on: at equal sub-stack count, uniform random
// scheduling scores markedly worse error distance than power-of-two-choices,
// and the window-disciplined 2D-Stack beats both. This is a statistical
// property but a heavily separated one (the Figure 2 data shows ~195 vs ~36
// vs ~18), so the factor-of-two margins here are conservative. Each design
// runs a fixed op count, not a duration: the 2D-Stack's first pops reach
// deep (distance 512–1023 while its window settles), and a timed run that
// a slow host (or the race detector) cuts to a few thousand operations
// lets that start-up tail set the mean.
func TestQualityOrderingAcrossDesigns(t *testing.T) {
	if testing.Short() {
		t.Skip("quality measurement run")
	}
	w := Workload{
		Workers:   4,
		Ops:       40000,
		PushRatio: 0.5,
		Prefill:   16384,
		Seed:      7,
	}
	measure := func(f Factory) float64 {
		res, err := RunQuality(f, w)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if res.Quality.Count == 0 {
			t.Fatalf("%s: no pops measured", f.Name)
		}
		return res.Quality.Mean()
	}
	const width = 64
	randomErr := measure(NewMultiFactory(multistack.Config{Width: width, Policy: multistack.Random}, 4))
	c2Err := measure(NewMultiFactory(multistack.Config{Width: width, Policy: multistack.RandomC2}, 4))
	twoDErr := measure(Figure2Factory(relax.TwoDStack, 4))

	t.Logf("mean error: random=%.1f random-c2=%.1f 2D-stack=%.1f", randomErr, c2Err, twoDErr)
	if c2Err*2 > randomErr {
		t.Errorf("random (%.1f) should be at least 2x worse than random-c2 (%.1f)", randomErr, c2Err)
	}
	if twoDErr*1.5 > c2Err {
		t.Errorf("random-c2 (%.1f) should be clearly worse than 2D-stack (%.1f)", c2Err, twoDErr)
	}
}

// TestQualityGrowsWithRelaxation: the 2D-Stack's measured error must grow
// monotonically-ish with the configured k (allowing noise, we require the
// endpoints to be well separated).
func TestQualityGrowsWithRelaxation(t *testing.T) {
	if testing.Short() {
		t.Skip("quality measurement run")
	}
	w := Workload{
		Workers:   2,
		Duration:  60 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   16384,
		Seed:      3,
	}
	errAt := func(k int64) float64 {
		res, err := RunQuality(Figure1Factory(relax.TwoDStack, k, 2), w)
		if err != nil {
			t.Fatal(err)
		}
		return res.Quality.Mean()
	}
	small := errAt(8)
	large := errAt(4096)
	t.Logf("mean error: k=8 %.2f, k=4096 %.2f", small, large)
	if large < small*3 {
		t.Errorf("relaxation did not cost accuracy: k=8 err %.2f vs k=4096 err %.2f", small, large)
	}
}

// TestStrictDesignsScoreZeroQuality: every strict design must measure mean
// error exactly zero with one worker.
func TestStrictDesignsScoreZeroQuality(t *testing.T) {
	w := Workload{
		Workers:   1,
		Duration:  30 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   4096,
		Seed:      5,
	}
	for _, f := range []Factory{
		NewTreiberFactory(),
		Figure2Factory(relax.EliminationStack, 1),
		NewFlatCombiningFactory(),
	} {
		res, err := RunQuality(f, w)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if res.Quality.Mean() != 0 {
			t.Errorf("%s: mean error %.3f, want 0", f.Name, res.Quality.Mean())
		}
	}
}
