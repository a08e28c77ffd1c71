package seqspec

import (
	"testing"
	"testing/quick"
)

func TestModelBasicLIFO(t *testing.T) {
	var m Model
	if _, ok := m.Pop(); ok {
		t.Fatal("pop on empty model returned ok")
	}
	m.Push(1)
	m.Push(2)
	m.Push(3)
	if got := m.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	for _, want := range []uint64{3, 2, 1} {
		v, ok := m.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v want %d,true", v, ok, want)
		}
	}
	if _, ok := m.Pop(); ok {
		t.Fatal("pop after draining returned ok")
	}
}

func TestCheckLIFOAcceptsLegal(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPop, Value: 2},
		{Kind: OpPop, Value: 1},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkStack(ops, 0); err != nil {
		t.Fatalf("legal history rejected: %v", err)
	}
}

func TestCheckLIFORejectsOutOfOrder(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPop, Value: 1}, // violates LIFO
	}
	if _, err := checkStack(ops, 0); err == nil {
		t.Fatal("out-of-order pop accepted at k=0")
	}
}

func TestCheckLIFORejectsBogusEmpty(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkStack(ops, 0); err == nil {
		t.Fatal("empty pop with non-empty model accepted")
	}
}

func TestCheckLIFORejectsPopFromEmpty(t *testing.T) {
	ops := []Op{{Kind: OpPop, Value: 7}}
	if _, err := checkStack(ops, 0); err == nil {
		t.Fatal("pop of a value from empty model accepted")
	}
}

func TestCheckKOutOfOrderAcceptsWithinBound(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 1}, // distance 2
	}
	rep, err := checkStack(ops, 2)
	if err != nil {
		t.Fatalf("within-bound history rejected: %v", err)
	}
	if rep.MaxDistance != 2 {
		t.Fatalf("MaxDistance = %d, want 2", rep.MaxDistance)
	}
}

func TestCheckKOutOfOrderRejectsBeyondBound(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 1}, // distance 2 > k=1
	}
	if _, err := checkStack(ops, 1); err == nil {
		t.Fatal("beyond-bound pop accepted")
	}
}

func TestCheckKOutOfOrderEmptyRules(t *testing.T) {
	// k=2: empty return legal with <=2 items present.
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkStack(ops, 2); err != nil {
		t.Fatalf("legal relaxed empty rejected: %v", err)
	}
	// but illegal with 3 items present.
	ops = []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Empty: true},
	}
	if _, err := checkStack(ops, 2); err == nil {
		t.Fatal("empty pop with k+1 items accepted")
	}
}

func TestMeasureDistances(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPush, Value: 2},
		{Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 2},    // distance 1
		{Kind: OpPop, Value: 3},    // distance 0
		{Kind: OpPop, Empty: true}, // ignored
		{Kind: OpPop, Value: 1},    // distance 0
	}
	rep, err := checkStack(ops, int64(len(ops)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pops != 3 || rep.MaxDistance != 1 {
		t.Fatalf("report %+v, want 3 pops at distances 1, 0, 0", rep)
	}
}

func TestMeasureDistancesDetectsPhantomPop(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1},
		{Kind: OpPop, Value: 2},
	}
	if _, err := checkStack(ops, int64(len(ops))); err == nil {
		t.Fatal("phantom pop not detected")
	}
}

// Property: for any push sequence followed by pops in reverse order, the
// check at k = 0 accepts.
func TestCheckLIFOPropertyReversedPops(t *testing.T) {
	f := func(vals []uint64) bool {
		ops := make([]Op, 0, 2*len(vals))
		for _, v := range vals {
			ops = append(ops, Op{Kind: OpPush, Value: v})
		}
		for i := len(vals) - 1; i >= 0; i-- {
			ops = append(ops, Op{Kind: OpPop, Value: vals[i]})
		}
		_, err := checkStack(ops, 0)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: strict LIFO histories are k-out-of-order legal for every k>=0,
// and a check at a k no history reaches measures all-zero distances.
func TestStrictHistoriesAreKLegal(t *testing.T) {
	f := func(vals []uint64, kRaw uint8) bool {
		k := int64(kRaw % 8)
		ops := make([]Op, 0, 2*len(vals))
		for _, v := range vals {
			ops = append(ops, Op{Kind: OpPush, Value: v})
		}
		for i := len(vals) - 1; i >= 0; i-- {
			ops = append(ops, Op{Kind: OpPop, Value: vals[i]})
		}
		rep, err := checkStack(ops, k)
		if err != nil || rep.MaxDistance != 0 {
			return false
		}
		rep, err = checkStack(ops, int64(len(ops)))
		return err == nil && rep.Pops == len(vals) && rep.MaxDistance == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// checkStack checks a sequential stack history at bound k.
func checkStack(ops []Op, k int64) (KDistanceReport, error) {
	return (KStackChecker{K: k}).Check(SequentialIntervals(ops))
}

func TestOpKindString(t *testing.T) {
	if OpPush.String() != "push" || OpPop.String() != "pop" {
		t.Fatal("OpKind.String mismatch")
	}
	if OpKind(9).String() != "OpKind(9)" {
		t.Fatalf("unknown kind formatting: %s", OpKind(9).String())
	}
}
