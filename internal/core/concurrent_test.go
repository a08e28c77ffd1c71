package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"stack2d/internal/seqspec"
)

// TestConcurrentConservation: under mixed concurrent push/pop, the multiset
// of values recovered (pops + final drain) equals the multiset pushed.
// Run with -race to catch synchronisation bugs.
func TestConcurrentConservation(t *testing.T) {
	const (
		workers = 8
		perW    = 3000
	)
	s := MustNew[uint64](DefaultConfig(workers))
	var wg sync.WaitGroup
	popped := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < perW; i++ {
				h.Push(uint64(w*perW + i))
				if i%2 == 1 {
					if v, ok := h.Pop(); ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]int, workers*perW)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
		seen[v]++
	}
	if len(seen) != workers*perW {
		t.Fatalf("distinct values recovered = %d, want %d", len(seen), workers*perW)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
}

// TestConcurrentDrainExactlyOnce: concurrent pure poppers never duplicate or
// lose an item from a prefilled stack, and all report empty at the end.
func TestConcurrentDrainExactlyOnce(t *testing.T) {
	const n = 20000
	s := MustNew[uint64](Config{Width: 16, Depth: 8, Shift: 8, RandomHops: 2})
	h := s.NewHandle()
	for v := uint64(0); v < n; v++ {
		h.Push(v)
	}
	const workers = 8
	var wg sync.WaitGroup
	results := make(chan uint64, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle()
			for {
				v, ok := h.Pop()
				if !ok {
					return
				}
				results <- v
			}
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[uint64]bool, n)
	for v := range results {
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("popped %d values, want %d", len(seen), n)
	}
}

// TestConcurrentEmptyNeverFalseWhileFull: with a large standing population
// and balanced churn, Pop must never report empty (the stack always holds
// far more than k items).
func TestConcurrentEmptyNeverFalseWhileFull(t *testing.T) {
	cfg := Config{Width: 8, Depth: 4, Shift: 4, RandomHops: 2}
	s := MustNew[uint64](cfg)
	seed := s.NewHandle()
	const standing = 50000 // >> k = (2*4+4)*7 = 84
	for v := uint64(0); v < standing; v++ {
		seed.Push(v)
	}
	const workers = 8
	var wg sync.WaitGroup
	var emptyReturns atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < 2000; i++ {
				// Pop then push back: population stays near `standing`.
				v, ok := h.Pop()
				if !ok {
					emptyReturns.Add(1)
					continue
				}
				h.Push(v)
			}
		}(w)
	}
	wg.Wait()
	if n := emptyReturns.Load(); n != 0 {
		t.Fatalf("Pop reported empty %d times with ~%d items standing", n, standing)
	}
}

// TestConcurrentHistoryIsKLegalWithSlack records a completion-ordered
// history under concurrency and checks it against a slackened bound.
//
// Note on methodology: completion order is not linearization order, so the
// theorem's exact k cannot be asserted on this trace; concurrency adds up to
// one in-flight operation per worker of reordering. We assert the bound
// k + workers * 2, which catches gross violations (e.g. a broken window)
// while tolerating trace skew; the exact bound is asserted in the
// sequential tests and the relaxation tests in internal/relax.
func TestConcurrentHistoryIsKLegalWithSlack(t *testing.T) {
	cfg := Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2}
	s := MustNew[uint64](cfg)
	const workers = 4
	const opsPerW = 4000

	type stamped struct {
		seq int64
		op  seqspec.Op
	}
	var stamp atomic.Int64
	perW := make([][]stamped, workers)
	var wg sync.WaitGroup
	var label atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			buf := make([]stamped, 0, opsPerW)
			for i := 0; i < opsPerW; i++ {
				if i%2 == 0 {
					// Stamp the push at invocation so no pop of v can be
					// stamped before it (completion-stamped pushes make
					// the merged trace claim values pop before they
					// exist under unlucky preemption).
					v := label.Add(1)
					buf = append(buf, stamped{stamp.Add(1), seqspec.Op{Kind: seqspec.OpPush, Value: v}})
					h.Push(v)
				} else {
					v, ok := h.Pop()
					buf = append(buf, stamped{stamp.Add(1), seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok}})
				}
			}
			perW[w] = buf
		}(w)
	}
	wg.Wait()

	// Merge by stamp. Stamps are unique and dense enough to bucket-sort.
	total := 0
	for _, b := range perW {
		total += len(b)
	}
	merged := make([]seqspec.Op, total)
	filled := make([]bool, total+1)
	for _, b := range perW {
		for _, st := range b {
			merged[st.seq-1] = st.op
			filled[st.seq-1] = true
		}
	}
	for i := 0; i < total; i++ {
		if !filled[i] {
			t.Fatalf("stamp %d missing from trace", i+1)
		}
	}
	// Drain sequentially to complete the history.
	h := s.NewHandle()
	for {
		v, ok := h.Pop()
		merged = append(merged, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}
	slack := cfg.K() + workers*2
	rep, err := (seqspec.KStackChecker{K: slack}).Check(seqspec.SequentialIntervals(merged))
	if err != nil {
		t.Fatalf("concurrent history exceeds slackened bound %d: %v", slack, err)
	}
	t.Logf("k=%d slack=%d maxObservedDist=%d over %d pops", cfg.K(), slack, rep.MaxDistance, rep.Pops)
}

// TestConcurrentWidthOne: the degenerate strict stack under concurrency
// still conserves values (it is a plain descriptor-based Treiber stack).
func TestConcurrentWidthOne(t *testing.T) {
	s := MustNew[uint64](Config{Width: 1, Depth: 64, Shift: 64})
	const workers = 4
	const perW = 2000
	var wg sync.WaitGroup
	var recovered atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < perW; i++ {
				h.Push(uint64(w*perW + i))
				if _, ok := h.Pop(); ok {
					recovered.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rest := len(s.Drain())
	if got := int(recovered.Load()) + rest; got != workers*perW {
		t.Fatalf("recovered %d values, want %d", got, workers*perW)
	}
}

// TestHandleIndependence: handles must not corrupt each other's anchors.
func TestHandleIndependence(t *testing.T) {
	s := MustNew[int](DefaultConfig(2))
	h1, h2 := s.NewHandle(), s.NewHandle()
	h1.Push(1)
	h2.Push(2)
	got := map[int]bool{}
	if v, ok := h2.Pop(); ok {
		got[v] = true
	}
	if v, ok := h1.Pop(); ok {
		got[v] = true
	}
	if !got[1] || !got[2] {
		t.Fatalf("handles lost values: %v", got)
	}
}

// TestManyHandles: handle creation is itself concurrent-safe.
func TestManyHandles(t *testing.T) {
	s := MustNew[int](DefaultConfig(4))
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			h.Push(w)
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != 32 {
		t.Fatalf("Len = %d, want 32", got)
	}
}
