package quality

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStrictLIFOScoresZero(t *testing.T) {
	var o Oracle
	for v := uint64(1); v <= 100; v++ {
		o.Insert(v)
	}
	for v := uint64(100); v >= 1; v-- {
		if d := o.Remove(v); d != 0 {
			t.Fatalf("Remove(%d) distance = %d, want 0", v, d)
		}
	}
	st := o.Snapshot()
	if st.Count != 100 || st.Sum != 0 || st.Max != 0 {
		t.Fatalf("stats = %+v, want 100 zero-distance pops", st)
	}
	if st.Mean() != 0 {
		t.Fatalf("Mean = %g, want 0", st.Mean())
	}
}

func TestDistanceIsRankFromHead(t *testing.T) {
	var o Oracle
	o.Insert(1)
	o.Insert(2)
	o.Insert(3) // list: 3 2 1
	if d := o.Remove(1); d != 2 {
		t.Fatalf("Remove(1) = %d, want 2", d)
	}
	if d := o.Remove(3); d != 0 {
		t.Fatalf("Remove(3) = %d, want 0", d)
	}
	if d := o.Remove(2); d != 0 {
		t.Fatalf("Remove(2) = %d, want 0", d)
	}
	st := o.Snapshot()
	if st.Max != 2 {
		t.Fatalf("Max = %d, want 2", st.Max)
	}
	if got := st.Mean(); got != 2.0/3.0 {
		t.Fatalf("Mean = %g, want 2/3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var o Oracle
	// Build list 8..1 (8 at head) then pop at known distances.
	for v := uint64(1); v <= 8; v++ {
		o.Insert(v)
	}
	o.Remove(8) // d=0 -> bucket 0
	o.Remove(6) // d=1 (7 at head now... list: 7 6 5 ... after removing 8) -> recompute
	st := o.Snapshot()
	if st.Hist[0] != 1 {
		t.Fatalf("bucket 0 = %d, want 1 (one exact pop)", st.Hist[0])
	}
	if st.Hist[1] != 1 {
		t.Fatalf("bucket 1 = %d, want 1 (one distance-1 pop)", st.Hist[1])
	}
}

func TestLen(t *testing.T) {
	var o Oracle
	if o.Len() != 0 {
		t.Fatal("fresh oracle not empty")
	}
	o.Insert(1)
	o.Insert(2)
	if o.Len() != 2 {
		t.Fatalf("Len = %d, want 2", o.Len())
	}
	o.Remove(1)
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1", o.Len())
	}
}

func TestRemoveWaitsForLateInsert(t *testing.T) {
	var o Oracle
	done := make(chan int)
	go func() { done <- o.Remove(42) }()
	// The remover is now spinning; deliver the insert.
	o.Insert(42)
	if d := <-done; d != 0 {
		t.Fatalf("late-insert Remove distance = %d, want 0", d)
	}
}

func TestConcurrentInsertRemove(t *testing.T) {
	var o Oracle
	const workers = 8
	const perW = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * perW
			for i := uint64(0); i < perW; i++ {
				o.Insert(base + i)
				o.Remove(base + i)
			}
		}(w)
	}
	wg.Wait()
	if o.Len() != 0 {
		t.Fatalf("Len = %d after balanced workload, want 0", o.Len())
	}
	st := o.Snapshot()
	if st.Count != workers*perW {
		t.Fatalf("Count = %d, want %d", st.Count, workers*perW)
	}
}

func TestMeanEmpty(t *testing.T) {
	var st Stats
	if st.Mean() != 0 {
		t.Fatal("Mean of empty stats not 0")
	}
}

func TestFIFOOracleStrictScoresZero(t *testing.T) {
	var o FIFOOracle
	for v := uint64(1); v <= 50; v++ {
		o.Insert(v)
	}
	for v := uint64(1); v <= 50; v++ {
		if d := o.Remove(v); d != 0 {
			t.Fatalf("Remove(%d) distance = %d, want 0 (exact FIFO)", v, d)
		}
	}
	if st := o.Snapshot(); st.Count != 50 || st.Sum != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOracleDistanceFromFront(t *testing.T) {
	var o FIFOOracle
	o.Insert(1)
	o.Insert(2)
	o.Insert(3) // list: 1 2 3 (1 at front)
	if d := o.Remove(3); d != 2 {
		t.Fatalf("Remove(3) = %d, want 2", d)
	}
	if d := o.Remove(1); d != 0 {
		t.Fatalf("Remove(1) = %d, want 0", d)
	}
	// Removing the tail keeps the tail pointer consistent.
	if d := o.Remove(2); d != 0 {
		t.Fatalf("Remove(2) = %d, want 0", d)
	}
	o.Insert(9)
	if o.Len() != 1 {
		t.Fatalf("Len = %d after reuse, want 1", o.Len())
	}
}

func TestFIFOOracleWaitsForLateInsert(t *testing.T) {
	var o FIFOOracle
	done := make(chan int)
	go func() { done <- o.Remove(42) }()
	o.Insert(42)
	if d := <-done; d != 0 {
		t.Fatalf("late-insert Remove distance = %d", d)
	}
}

func TestFIFOOracleConcurrent(t *testing.T) {
	var o FIFOOracle
	const workers, perW = 8, 1500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * perW
			for i := uint64(0); i < perW; i++ {
				o.Insert(base + i)
				o.Remove(base + i)
			}
		}(w)
	}
	wg.Wait()
	if o.Len() != 0 {
		t.Fatalf("Len = %d, want 0", o.Len())
	}
	if st := o.Snapshot(); st.Count != workers*perW {
		t.Fatalf("Count = %d, want %d", st.Count, workers*perW)
	}
}

func TestRemoveWithinTimesOutOnAbsentLabel(t *testing.T) {
	var o Oracle
	o.Insert(1)
	o.Insert(2)
	if _, err := o.RemoveWithin(99, 20*time.Millisecond); err == nil {
		t.Fatal("RemoveWithin on a never-inserted label must fail")
	} else {
		msg := err.Error()
		if !strings.Contains(msg, "label 99") || !strings.Contains(msg, "2 labels resident") {
			t.Fatalf("diagnostic should name the label and the population, got: %v", err)
		}
	}
	// The miss must not perturb the list or the stats.
	if o.Len() != 2 {
		t.Fatalf("Len = %d after a timed-out Remove, want 2", o.Len())
	}
	if st := o.Snapshot(); st.Count != 0 {
		t.Fatalf("Count = %d after a timed-out Remove, want 0", st.Count)
	}
}

func TestFIFORemoveWithinTimesOutOnAbsentLabel(t *testing.T) {
	var o FIFOOracle
	o.Insert(1)
	if _, err := o.RemoveWithin(99, 20*time.Millisecond); err == nil {
		t.Fatal("RemoveWithin on a never-inserted label must fail")
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d after a timed-out Remove, want 1", o.Len())
	}
}
