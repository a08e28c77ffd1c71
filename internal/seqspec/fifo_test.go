package seqspec

import (
	"testing"
	"testing/quick"
)

func TestFIFOModelBasic(t *testing.T) {
	var m FIFOModel
	if _, ok := m.Dequeue(); ok {
		t.Fatal("dequeue on empty returned ok")
	}
	for v := uint64(1); v <= 5; v++ {
		m.Enqueue(v)
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d, want 5", m.Len())
	}
	for want := uint64(1); want <= 5; want++ {
		v, ok := m.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := m.Dequeue(); ok {
		t.Fatal("dequeue after drain returned ok")
	}
}

func TestFIFOModelCompaction(t *testing.T) {
	var m FIFOModel
	// Interleave enough enqueue/dequeue churn to trigger compaction.
	next := uint64(1)
	expect := uint64(1)
	for i := 0; i < 5000; i++ {
		m.Enqueue(next)
		next++
		v, ok := m.Dequeue()
		if !ok || v != expect {
			t.Fatalf("step %d: Dequeue = (%d,%v), want (%d,true)", i, v, ok, expect)
		}
		expect++
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after balanced churn", m.Len())
	}
}

func TestCheckKOutOfOrderFIFO(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 3}, // distance 2
	}
	rep, err := checkFIFO(ops, 2)
	if err != nil || rep.MaxDistance != 2 {
		t.Fatalf("check at k=2 = (%+v, %v), want MaxDistance 2 and no error", rep, err)
	}
	if _, err := checkFIFO(ops, 1); err == nil {
		t.Fatal("distance-2 dequeue accepted with k=1")
	}
}

func TestCheckKFIFOEmptyRules(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkFIFO(ops, 1); err != nil {
		t.Fatalf("legal relaxed empty rejected: %v", err)
	}
	ops = []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkFIFO(ops, 1); err == nil {
		t.Fatal("empty with k+1 items accepted")
	}
}

func TestCheckKFIFOPhantom(t *testing.T) {
	ops := []Op{{Kind: OpPop, Value: 9}}
	if _, err := checkFIFO(ops, 4); err == nil {
		t.Fatal("phantom dequeue accepted")
	}
}

func TestMeasureDistancesFIFO(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 2},    // distance 1
		{Kind: OpPop, Value: 1},    // distance 0
		{Kind: OpPop, Empty: true}, // ignored
		{Kind: OpPop, Value: 3},    // distance 0
	}
	rep, err := checkFIFO(ops, int64(len(ops)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pops != 3 || rep.MaxDistance != 1 {
		t.Fatalf("report %+v, want 3 dequeues at distances 1, 0, 0", rep)
	}
	bad := []Op{{Kind: OpPop, Value: 7}}
	if _, err := checkFIFO(bad, int64(len(bad))); err == nil {
		t.Fatal("phantom dequeue not detected")
	}
}

// Property: strict FIFO histories are k-legal for every k and score zero
// distance.
func TestStrictFIFOHistoriesAreKLegal(t *testing.T) {
	f := func(vals []uint64, kRaw uint8) bool {
		k := int64(kRaw % 8)
		ops := make([]Op, 0, 2*len(vals))
		for _, v := range vals {
			ops = append(ops, Op{Kind: OpPush, Value: v})
		}
		for _, v := range vals {
			ops = append(ops, Op{Kind: OpPop, Value: v})
		}
		rep, err := checkFIFO(ops, k)
		return err == nil && rep.MaxDistance == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkFIFO checks a sequential queue history at bound k.
func checkFIFO(ops []Op, k int64) (KDistanceReport, error) {
	return (KFIFOChecker{K: k}).Check(SequentialIntervals(ops))
}
