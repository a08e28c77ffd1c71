package main

import (
	"testing"

	"stack2d/internal/relax"
)

func TestParseAlgorithm(t *testing.T) {
	cases := []struct {
		in   string
		want relax.Algorithm
		ok   bool
	}{
		{"2d", relax.TwoDStack, true},
		{"2D-Stack", relax.TwoDStack, true},
		{"k-segment", relax.KSegment, true},
		{"ksegment", relax.KSegment, true},
		{"K-Robin", relax.KRobin, true},
		{"random", relax.RandomStack, true},
		{"c2", relax.RandomC2Stack, true},
		{"random-c2", relax.RandomC2Stack, true},
		{"elimination", relax.EliminationStack, true},
		{"treiber", relax.TreiberStack, true},
		{"nope", 0, false},
		{"", 0, false},
	}
	for _, c := range cases {
		got, err := parseAlgorithm(c.in)
		if (err == nil) != c.ok {
			t.Errorf("parseAlgorithm(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("parseAlgorithm(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestFactorySizesQueueByK checks that -k sizes the 2D-Queue under -fifo:
// a small and a large budget build different geometries, each within its
// budget.
func TestFactorySizesQueueByK(t *testing.T) {
	var bounds []int64
	for _, k := range []int64{8, 100000} {
		f, err := factory("2d", true, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if f.K <= 0 || f.K > k {
			t.Errorf("-fifo -k %d built K() = %d, want in (0, %d]", k, f.K, k)
		}
		bounds = append(bounds, f.K)
	}
	if bounds[0] == bounds[1] {
		t.Errorf("-k 8 and -k 100000 built the same geometry (K() = %d)", bounds[0])
	}
	if f, err := factory("ms-queue", true, 8, 2); err != nil || f.K != 0 {
		t.Errorf("ms-queue factory = (K %d, err %v), want (0, nil)", f.K, err)
	}
	if _, err := factory("nope", true, 8, 2); err == nil {
		t.Error("unknown queue accepted")
	}
}
