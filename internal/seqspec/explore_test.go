package seqspec

import (
	"fmt"
	"testing"
)

// stepsToOps converts an explorer trace to a completion-order history, the
// input of SequentialIntervals, so traces can be cross-validated by
// machinery entirely independent of the explorer's own distance
// accounting. Trace Values are already push labels (relabelSteps), so the
// mapping is direct.
func stepsToOps(steps []ExploreStep) []Op {
	ops := make([]Op, 0, len(steps))
	for _, s := range steps {
		kind := OpPop
		if s.Push {
			kind = OpPush
		}
		ops = append(ops, Op{Kind: kind, Value: uint64(s.Value)})
	}
	return ops
}

func TestExploreValidation(t *testing.T) {
	bad := []ExploreConfig{
		{Width: 0, Depth: 1, Shift: 1, MaxOps: 4},
		{Width: 1, Depth: 0, Shift: 1, MaxOps: 4},
		{Width: 1, Depth: 2, Shift: 3, MaxOps: 4},
		{Width: 1, Depth: 2, Shift: 0, MaxOps: 4},
		{Width: 1, Depth: 1, Shift: 1, MaxOps: 0},
		{Width: 1, Depth: 1, Shift: 1, MaxOps: maxExploreOps + 1},
	}
	for _, cfg := range bad {
		if _, err := ExploreStack(cfg); err == nil {
			t.Errorf("ExploreStack(%+v) accepted an invalid config", cfg)
		}
		if _, err := ExploreQueue(cfg); err == nil {
			t.Errorf("ExploreQueue(%+v) accepted an invalid config", cfg)
		}
	}
}

// TestExploreWidthOneIsStrict: the degenerate geometry must certify k = 0
// for both structures — the explorer's analogue of the strict-LIFO tests.
func TestExploreWidthOneIsStrict(t *testing.T) {
	for d := 1; d <= 4; d++ {
		cfg := ExploreConfig{Width: 1, Depth: d, Shift: d, MaxOps: 12, Bound: 0}
		r, err := ExploreStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Certified() || r.MaxDistance != 0 {
			t.Fatalf("stack width 1 depth %d: max %d, counterexample %v", d, r.MaxDistance, r.Counterexample)
		}
		r, err = ExploreQueue(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Certified() || r.MaxDistance != 0 {
			t.Fatalf("queue width 1 depth %d: max %d, counterexample %v", d, r.MaxDistance, r.Counterexample)
		}
	}
}

// TestExploreStackFindsTheoremOneCounterexample pins the discovery that
// settled the Theorem-1 constant audit (DESIGN.md §2): at width 2, depth 4,
// shift 1 the paper's transcribed constant — shift-weighted, value 6 —
// is violated: the explorer produces a minimal history realising distance
// 7 — while the corrected constant (2·depth + shift)(width − 1) = 9 is
// certified over the same horizon. The counterexample trace is additionally
// replayed through the independent distance check.
func TestExploreStackFindsTheoremOneCounterexample(t *testing.T) {
	const retiredK = 6 // (2·1 + 4)·(2−1), the paper constant as transcribed
	const correctedK = 9
	cfg := ExploreConfig{Width: 2, Depth: 4, Shift: 1, MaxOps: 18, Bound: retiredK}
	r, err := ExploreStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Certified() {
		t.Fatalf("retired constant %d not refuted within %d ops (max %d)", retiredK, cfg.MaxOps, r.MaxDistance)
	}
	last := r.Counterexample[len(r.Counterexample)-1]
	if last.Push || last.Dist != 7 {
		t.Fatalf("counterexample ends in %+v, want a pop at distance 7", last)
	}
	// BFS order makes the trace minimal; its length is deterministic.
	if len(r.Counterexample) != 16 {
		t.Errorf("minimal counterexample has %d ops, want 16:\n%v", len(r.Counterexample), r.Counterexample)
	}
	// Cross-validate with the independent distance check: the replayed
	// trace must exceed the retired bound and respect the corrected one.
	ops := stepsToOps(r.Counterexample)
	if _, err := checkStack(ops, retiredK); err == nil {
		t.Errorf("replayed counterexample passes the retired bound %d", retiredK)
	}
	if _, err := checkStack(ops, correctedK); err != nil {
		t.Errorf("replayed counterexample violates the corrected bound %d: %v", correctedK, err)
	}

	// The same geometry certifies against the corrected constant.
	cfg.Bound = correctedK
	r, err = ExploreStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Certified() {
		t.Fatalf("corrected constant %d refuted: %v", correctedK, r.Counterexample)
	}
}

// TestExploreRealizedMaximaPinned pins the exhaustive width-2 maxima at an
// 18-op horizon. These are the numbers behind DESIGN.md §2's resolution
// note: the stack's realised sequential maxima stay within
// (2·depth − 1)(width − 1) — strictly inside the corrected constant — and
// the queue's within depth·(width − 1) (its ceilings are monotone, so the
// stack's stale-top path does not exist). A change in either table means
// the window discipline model changed; update DESIGN.md §2 alongside.
func TestExploreRealizedMaximaPinned(t *testing.T) {
	cases := []struct {
		d, s     int
		stackMax int
		queueMax int
	}{
		{1, 1, 1, 1},
		{2, 1, 3, 2},
		{2, 2, 2, 2},
		{3, 1, 5, 3},
		{3, 2, 5, 3},
		{3, 3, 3, 3},
		{4, 1, 7, 4},
		{4, 2, 6, 4},
		{4, 3, 7, 4},
		{4, 4, 4, 4},
	}
	for _, c := range cases {
		cfg := ExploreConfig{Width: 2, Depth: c.d, Shift: c.s, MaxOps: 18, Bound: -1}
		r, err := ExploreStack(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxDistance != c.stackMax {
			t.Errorf("stack d=%d s=%d: max %d, want %d", c.d, c.s, r.MaxDistance, c.stackMax)
		}
		r, err = ExploreQueue(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r.MaxDistance != c.queueMax {
			t.Errorf("queue d=%d s=%d: max %d, want %d", c.d, c.s, r.MaxDistance, c.queueMax)
		}
	}
}

// TestConformanceExhaustiveExplorer is the certificate behind the corrected
// Theorem-1 constant (DESIGN.md §2): for every geometry with width <= 3,
// depth <= 4 and every legal shift, exhaustive exploration of all push/pop
// interleavings within the horizon realises no distance beyond
// k = (2·depth + shift)·(width − 1), for the stack and the queue alike.
// Horizons shrink with width to keep the state space tractable; the width-2
// horizon is deep enough to contain the retired constant's minimal
// counterexample (16 ops), so this test would catch a regression to it.
//
// Scope, honestly: realising distance D takes at least D+2 operations, so
// a horizon of N ops can only refute bounds up to N−3 — every width-2 run
// is refutable in principle, but the larger-k width-3 geometries are not,
// and for those the exhaustive pass is evidence for the *sharp* secondary
// bounds below rather than for k itself; beyond the horizon, DESIGN.md
// §2's band argument carries the claim. The sharp bounds — the stack's
// (2·depth − 1)·(width − 1) from that band argument, the queue's
// depth·(width − 1) observed regime (monotone ceilings, see the pinned
// maxima table) — are refutable at these horizons for most geometries and
// are asserted on every run. Each certified run's witness trace is
// re-validated through the independent distance check.
func TestConformanceExhaustiveExplorer(t *testing.T) {
	explorers := []struct {
		name    string
		explore func(ExploreConfig) (ExploreResult, error)
		sharp   func(w, d, s int) int
	}{
		{"stack", ExploreStack, func(w, d, _ int) int { return (2*d - 1) * (w - 1) }},
		{"queue", ExploreQueue, func(w, d, _ int) int { return d * (w - 1) }},
	}
	for _, ex := range explorers {
		for w := 1; w <= 3; w++ {
			maxOps := []int{0, 12, 18, 13}[w]
			for d := 1; d <= 4; d++ {
				for s := 1; s <= d; s++ {
					t.Run(fmt.Sprintf("%s/w%dd%ds%d", ex.name, w, d, s), func(t *testing.T) {
						k := (2*d + s) * (w - 1)
						r, err := ex.explore(ExploreConfig{Width: w, Depth: d, Shift: s, MaxOps: maxOps, Bound: k})
						if err != nil {
							t.Fatal(err)
						}
						if !r.Certified() {
							t.Fatalf("k=%d refuted by minimal trace:\n%v", k, r.Counterexample)
						}
						if r.MaxDistance > k {
							t.Fatalf("max distance %d exceeds k=%d without counterexample", r.MaxDistance, k)
						}
						if sharp := ex.sharp(w, d, s); r.MaxDistance > sharp {
							t.Fatalf("max distance %d exceeds the sharp %s bound %d (DESIGN.md §2)", r.MaxDistance, ex.name, sharp)
						}
						if len(r.Witness) > 0 {
							ops := stepsToOps(r.Witness)
							rep, err := checkStack(ops, int64(k))
							if ex.name == "queue" {
								rep, err = checkFIFO(ops, int64(k))
							}
							if err != nil {
								t.Fatalf("witness replay: %v", err)
							}
							if rep.MaxDistance != r.MaxDistance {
								t.Fatalf("witness replay realises %d, explorer reported %d", rep.MaxDistance, r.MaxDistance)
							}
						}
					})
				}
			}
		}
	}
}
