package main

import "testing"

// TestFactorySizesQueueByK checks that -k sizes the 2D-Queue under -fifo:
// a small and a large budget build different geometries, each within its
// budget.
func TestFactorySizesQueueByK(t *testing.T) {
	var bounds []int64
	for _, k := range []int64{8, 100000} {
		b, err := backend("2d", true, k, 2)
		if err != nil {
			t.Fatal(err)
		}
		if b.KBound() <= 0 || b.KBound() > k {
			t.Errorf("-fifo -k %d built KBound() = %d, want in (0, %d]", k, b.KBound(), k)
		}
		bounds = append(bounds, b.KBound())
	}
	if bounds[0] == bounds[1] {
		t.Errorf("-k 8 and -k 100000 built the same geometry (KBound() = %d)", bounds[0])
	}
	for _, name := range []string{"ms-queue", "strict", "2d-queue"} {
		if _, err := backend(name, true, 8, 2); err != nil {
			t.Errorf("-fifo -alg %s: %v", name, err)
		}
	}
	if b, err := backend("strict", true, 8, 2); err != nil || b.KBound() != 0 {
		t.Errorf("strict queue = (err %v), want KBound 0", err)
	}
	for _, name := range []string{"nope", "treiber"} {
		if _, err := backend(name, true, 8, 2); err == nil {
			t.Errorf("-fifo -alg %s accepted", name)
		}
	}
}
