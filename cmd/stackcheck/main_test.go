package main

import (
	"testing"

	"stack2d/internal/relax"
)

func backend(t *testing.T, a relax.Algorithm, k int64) relax.Backend[uint64] {
	t.Helper()
	b, err := relax.NewBackendForK[uint64](a, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckConservationPasses(t *testing.T) {
	if err := checkConservation(backend(t, relax.TwoDStack, 128), 2, 5000); err != nil {
		t.Fatalf("conservation on a correct stack failed: %v", err)
	}
}

func TestCheckKBoundPasses(t *testing.T) {
	if err := checkKBound(backend(t, relax.TwoDStack, 128), 2, 5000); err != nil {
		t.Fatalf("k-bound on a correct stack failed: %v", err)
	}
}

func TestCheckKBoundStrictTreiber(t *testing.T) {
	b := backend(t, relax.TreiberStack, 128)
	if b.KBound() != 0 {
		t.Fatalf("treiber KBound = %d, want 0", b.KBound())
	}
	if err := checkKBound(b, 2, 5000); err != nil {
		t.Fatalf("k-bound on treiber failed: %v", err)
	}
}

// TestCheckKBoundQueues checks the FIFO entries with KFIFOChecker at
// their own bound: the 2D-Queue sized by -k, the strict Michael–Scott
// queue at zero.
func TestCheckKBoundQueues(t *testing.T) {
	for _, a := range []relax.Algorithm{relax.TwoDQueue, relax.MSQueue} {
		if err := checkKBound(backend(t, a, 128), 2, 5000); err != nil {
			t.Fatalf("k-bound on %v failed: %v", a, err)
		}
	}
}
