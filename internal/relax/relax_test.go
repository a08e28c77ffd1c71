package relax

import (
	"testing"
	"testing/quick"

	"stack2d/internal/multistack"
)

func TestAlgorithmNamesMatchPaper(t *testing.T) {
	want := map[Algorithm]string{
		TwoDStack:        "2D-stack",
		KSegment:         "k-segment",
		KRobin:           "k-robin",
		RandomStack:      "random",
		RandomC2Stack:    "random-c2",
		EliminationStack: "elimination",
		TreiberStack:     "treiber",
		TwoDQueue:        "2D-queue",
	}
	for a, name := range want {
		if a.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), name)
		}
	}
	if Algorithm(99).String() != "Algorithm(99)" {
		t.Error("unknown algorithm formatting")
	}
}

// TestParseAlgorithm pins the spellings every command's -alg flag
// accepts: the catalogue names in any case, with or without hyphens, and
// the short names.
func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want Algorithm
		ok   bool
	}{
		{"2d", TwoDStack, true},
		{"2D-Stack", TwoDStack, true},
		{"2dstack", TwoDStack, true},
		{"k-segment", KSegment, true},
		{"ksegment", KSegment, true},
		{"K-Robin", KRobin, true},
		{"krobin", KRobin, true},
		{"random", RandomStack, true},
		{"c2", RandomC2Stack, true},
		{"random-c2", RandomC2Stack, true},
		{"elimination", EliminationStack, true},
		{"treiber", TreiberStack, true},
		{"2d-queue", TwoDQueue, true},
		{"2DQueue", TwoDQueue, true},
		{"ms-queue", MSQueue, true},
		{"msqueue", MSQueue, true},
		{"strict", MSQueue, true},
		{"nope", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAlgorithm(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAlgorithm(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestParseAlgorithmCoversFigure2Set checks that the short spellings the
// command-line usage strings print reach every Figure 2 design.
func TestParseAlgorithmCoversFigure2Set(t *testing.T) {
	names := []string{"2d", "k-segment", "k-robin", "random", "random-c2", "elimination", "treiber"}
	seen := map[Algorithm]bool{}
	for _, n := range names {
		a, err := ParseAlgorithm(n)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", n, err)
		}
		seen[a] = true
	}
	for _, a := range Figure2Algorithms() {
		if !seen[a] {
			t.Errorf("algorithm %v not reachable from the usage spellings", a)
		}
	}
}

func TestKBounded(t *testing.T) {
	bounded := []Algorithm{
		TwoDStack, KSegment, KRobin, TreiberStack,
		EliminationStack, MSQueue, TwoDQueue,
	}
	for _, a := range bounded {
		if !a.KBounded() {
			t.Errorf("%v should be k-bounded", a)
		}
	}
	for _, a := range []Algorithm{RandomStack, RandomC2Stack} {
		if a.KBounded() {
			t.Errorf("%v should not be k-bounded", a)
		}
	}
	// Only the k-configurable algorithms take a target k; every one of
	// them must of course be k-bounded.
	for _, a := range AllAlgorithms() {
		if a.KConfigurable() && !a.KBounded() {
			t.Errorf("%v is k-configurable but not k-bounded", a)
		}
	}
}

func TestFigureAlgorithmSets(t *testing.T) {
	f1 := Figure1Algorithms()
	if len(f1) != 3 {
		t.Fatalf("Figure1Algorithms = %v, want 3 algorithms", f1)
	}
	for _, a := range f1 {
		if !a.KBounded() {
			t.Errorf("Figure 1 contains non-k-bounded %v", a)
		}
	}
	if len(Figure2Algorithms()) != 7 {
		t.Fatalf("Figure2Algorithms = %v, want all 7", Figure2Algorithms())
	}
}

func TestTwoDConfigForKStaysWithinBudget(t *testing.T) {
	for _, p := range []int{1, 2, 8, 16} {
		for _, k := range []int64{0, 1, 3, 10, 50, 100, 500, 1000, 10000} {
			cfg := TwoDConfigForK(k, p)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("k=%d p=%d: invalid config %+v: %v", k, p, cfg, err)
			}
			if got := cfg.K(); got > k && k >= 3 {
				t.Errorf("k=%d p=%d: configured bound %d exceeds budget", k, p, got)
			}
			if cfg.Width > 4*p {
				t.Errorf("k=%d p=%d: width %d exceeds 4P", k, p, cfg.Width)
			}
		}
	}
}

func TestTwoDConfigForKPhases(t *testing.T) {
	// Small k: horizontal growth (depth 1).
	cfg := TwoDConfigForK(30, 8)
	if cfg.Depth != 1 || cfg.Width != 11 {
		t.Fatalf("horizontal phase: got %+v, want width 11 depth 1", cfg)
	}
	// Large k: width pinned at 4P, depth grows.
	cfg = TwoDConfigForK(100000, 8)
	if cfg.Width != 32 {
		t.Fatalf("vertical phase: width = %d, want 32", cfg.Width)
	}
	if cfg.Depth <= 1 {
		t.Fatalf("vertical phase: depth = %d, want > 1", cfg.Depth)
	}
	// Zero budget: strict stack.
	cfg = TwoDConfigForK(0, 8)
	if cfg.Width != 1 {
		t.Fatalf("strict phase: width = %d, want 1", cfg.Width)
	}
	if cfg.K() != 0 {
		t.Fatalf("strict phase: K = %d, want 0", cfg.K())
	}
}

func TestTwoDConfigForKClampsP(t *testing.T) {
	cfg := TwoDConfigForK(100, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("p=0 produced invalid config: %v", err)
	}
	if cfg.Width > 4 {
		t.Fatalf("p=0 (clamped to 1): width = %d, want <= 4", cfg.Width)
	}
}

func TestKSegmentConfigForK(t *testing.T) {
	for _, k := range []int64{0, 1, 7, 100} {
		cfg := KSegmentConfigForK(k)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if got := cfg.K(); got != k {
			t.Errorf("k=%d: configured bound %d", k, got)
		}
	}
	if cfg := KSegmentConfigForK(-5); cfg.SegmentSize != 1 {
		t.Errorf("negative k not clamped: %+v", cfg)
	}
}

func TestKRobinConfigRoundTrips(t *testing.T) {
	for _, p := range []int{1, 4, 8, 16} {
		for _, k := range []int64{0, 16, 64, 256, 1024} {
			cfg := KRobinConfigForK(k, p)
			if err := cfg.Validate(); err != nil {
				t.Fatalf("k=%d p=%d: %v", k, p, err)
			}
			if cfg.Policy != multistack.RoundRobin {
				t.Fatalf("k=%d p=%d: policy %v", k, p, cfg.Policy)
			}
			if got := KRobinBound(cfg.Width, p); got > k {
				t.Errorf("k=%d p=%d: bound %d exceeds budget (width %d)", k, p, got, cfg.Width)
			}
		}
	}
}

func TestKRobinWidthShrinksWithP(t *testing.T) {
	// The paper: "k-robin reduces number of sub-stacks with the increase in
	// number of threads to keep the quality bound."
	const k = 512
	w8 := KRobinConfigForK(k, 8).Width
	w16 := KRobinConfigForK(k, 16).Width
	if w16 >= w8 {
		t.Fatalf("width did not shrink with P: w8=%d w16=%d", w8, w16)
	}
}

// Property: every mapping yields a valid config whose claimed bound never
// exceeds the budget (for k large enough to afford any relaxation).
func TestPropertyMappingsRespectBudget(t *testing.T) {
	f := func(kRaw uint16, pRaw uint8) bool {
		k := int64(kRaw)
		p := int(pRaw%16) + 1
		td := TwoDConfigForK(k, p)
		if td.Validate() != nil {
			return false
		}
		if k >= 3 && td.K() > k {
			return false
		}
		ks := KSegmentConfigForK(k)
		if ks.Validate() != nil || ks.K() != k {
			return false
		}
		kr := KRobinConfigForK(k, p)
		if kr.Validate() != nil {
			return false
		}
		return KRobinBound(kr.Width, p) <= k || kr.Width == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
