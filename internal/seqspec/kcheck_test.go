package seqspec

import (
	"fmt"
	"strings"
	"testing"

	"stack2d/internal/quality"
	"stack2d/internal/xrand"
)

func TestKStackCheckerSequentialMatchesExactChecker(t *testing.T) {
	// On a history with no overlapping intervals the check is exact: the
	// fixture's maximum distance, zero slack, and a rejection one below it.
	ops := []Op{
		{Kind: OpPush, Value: 1}, {Kind: OpPush, Value: 2}, {Kind: OpPush, Value: 3},
		{Kind: OpPush, Value: 4}, {Kind: OpPush, Value: 5},
		{Kind: OpPop, Value: 3}, // distance 2 (5 and 4 above)
		{Kind: OpPop, Value: 5}, // distance 0
		{Kind: OpPop, Value: 1}, // distance 2 (4 and 2 above)
	}
	const wantMax = 2
	rep, err := (KStackChecker{K: 2}).Check(SequentialIntervals(ops))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDistance != wantMax || rep.MaxSlack != 0 || rep.MaxStrain != wantMax {
		t.Fatalf("report %+v, want max=%d slack=0 strain=%d", rep, wantMax, wantMax)
	}
	// With no overlap there is no slack: k=1 must now fail.
	if _, err := (KStackChecker{K: 1}).Check(SequentialIntervals(ops)); err == nil {
		t.Fatal("sequential history at distance 2 passed k=1")
	}
}

func TestKStackCheckerAllowanceBudget(t *testing.T) {
	ops := SequentialIntervals([]Op{
		{Kind: OpPush, Value: 1}, {Kind: OpPush, Value: 2}, {Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 1}, // distance 2
	})
	if _, err := (KStackChecker{K: 0}).Check(ops); err == nil {
		t.Fatal("distance 2 passed k=0 with no allowance")
	}
	if _, err := (KStackChecker{K: 0, Allowance: 2}).Check(ops); err != nil {
		t.Fatalf("allowance 2 did not absorb distance 2: %v", err)
	}
}

func TestKStackCheckerOverlapSlack(t *testing.T) {
	// Three pushes whose intervals all overlap the pop: their placement
	// relative to the pop is ambiguous, so a distance up to the slack is
	// admitted even at k=0.
	ops := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 1},
		{Kind: OpPush, Value: 2, Begin: 2, End: 10},
		{Kind: OpPush, Value: 3, Begin: 3, End: 10},
		{Kind: OpPop, Value: 1, Begin: 4, End: 10},
	}
	rep, err := (KStackChecker{K: 0}).Check(ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDistance != 2 {
		t.Fatalf("measured distance %d, want 2", rep.MaxDistance)
	}
	if rep.MaxStrain != 0 {
		t.Fatalf("strain %d, want 0 (all displacement explained by overlap)", rep.MaxStrain)
	}
}

func TestKStackCheckerPopOfConcurrentPush(t *testing.T) {
	// The pop's Begin precedes the push's Begin but the intervals overlap:
	// a legal linearization places the push immediately before the pop.
	ops := []IntervalOp{
		{Kind: OpPop, Value: 1, Begin: 0, End: 10},
		{Kind: OpPush, Value: 1, Begin: 5, End: 6},
	}
	if _, err := (KStackChecker{K: 0}).Check(ops); err != nil {
		t.Fatalf("pop of concurrently pushed value rejected: %v", err)
	}
	// Entirely disjoint (push begins after the pop returned): causality
	// violation.
	ops[1].Begin, ops[1].End = 20, 21
	if _, err := (KStackChecker{K: 0}).Check(ops); err == nil {
		t.Fatal("time-travelling pop accepted")
	}
}

func TestKStackCheckerConservation(t *testing.T) {
	dup := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 1},
		{Kind: OpPop, Value: 1, Begin: 2, End: 3},
		{Kind: OpPop, Value: 1, Begin: 4, End: 5},
	}
	if _, err := (KStackChecker{K: 10}).Check(dup); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate pop not rejected: %v", err)
	}
	phantom := []IntervalOp{
		{Kind: OpPop, Value: 9, Begin: 0, End: 1},
	}
	if _, err := (KStackChecker{K: 10}).Check(phantom); err == nil || !strings.Contains(err.Error(), "never pushed") {
		t.Fatalf("phantom pop not rejected: %v", err)
	}
	twice := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 1},
		{Kind: OpPush, Value: 1, Begin: 2, End: 3},
	}
	if _, err := (KStackChecker{K: 10}).Check(twice); err == nil || !strings.Contains(err.Error(), "pushed twice") {
		t.Fatalf("duplicate push not rejected: %v", err)
	}
}

func TestKStackCheckerEmptyPops(t *testing.T) {
	// Empty report with three items present sequentially: needs k >= 3.
	ops := SequentialIntervals([]Op{
		{Kind: OpPush, Value: 1}, {Kind: OpPush, Value: 2}, {Kind: OpPush, Value: 3},
		{Kind: OpPop, Empty: true},
	})
	if _, err := (KStackChecker{K: 2}).Check(ops); err == nil {
		t.Fatal("false empty accepted at k=2")
	}
	rep, err := (KStackChecker{K: 3}).Check(ops)
	if err != nil {
		t.Fatal(err)
	}
	if rep.EmptyPops != 1 {
		t.Fatalf("report %+v, want EmptyPops=1", rep)
	}
}

func TestKFIFOCheckerSequential(t *testing.T) {
	ops := []Op{
		{Kind: OpPush, Value: 1}, {Kind: OpPush, Value: 2}, {Kind: OpPush, Value: 3},
		{Kind: OpPop, Value: 3}, // distance 2 from the front
		{Kind: OpPop, Value: 1}, // distance 0
		{Kind: OpPop, Value: 2}, // distance 0
	}
	const wantMax = 2
	rep, err := (KFIFOChecker{K: 2}).Check(SequentialIntervals(ops))
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxDistance != wantMax || rep.MaxStrain != wantMax {
		t.Fatalf("report %+v, want max=strain=%d", rep, wantMax)
	}
	if _, err := (KFIFOChecker{K: 1}).Check(SequentialIntervals(ops)); err == nil {
		t.Fatal("FIFO distance 2 passed k=1")
	}
}

func TestKCheckerRejectsNegativeKAndBadIntervals(t *testing.T) {
	if _, err := (KStackChecker{K: -1}).Check(nil); err == nil {
		t.Fatal("negative k accepted")
	}
	bad := []IntervalOp{{Kind: OpPush, Value: 1, Begin: 5, End: 1}}
	if _, err := (KStackChecker{K: 0}).Check(bad); err == nil {
		t.Fatal("malformed interval accepted")
	}
	if _, err := (KFIFOChecker{K: 0}).Check(bad); err == nil {
		t.Fatal("malformed interval accepted by FIFO checker")
	}
}

// TestRankListAgreesWithNaiveDistances holds the rank list behind both
// quality oracles and both checkers against a count made here. Labels are
// pushed in increasing order, so a popped label's distance is the number
// of resident labels above it (LIFO) or below it (FIFO). Random sequential
// histories in both orders pop residents at random ranks: every oracle
// distance must equal the count, the check at zero slack must realise the
// largest count and pass at it, and a pop planted one place beyond that
// must make the order's checker reject the history at the planted pop.
func TestRankListAgreesWithNaiveDistances(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		check, name := checkStack, "LIFO"
		if fifo {
			check, name = checkFIFO, "FIFO"
		}
		for seed := uint64(1); seed <= 30; seed++ {
			r := xrand.New(seed)
			var o interface {
				Insert(label uint64)
				Remove(label uint64) int
			} = &quality.Oracle{}
			if fifo {
				o = &quality.FIFOOracle{}
			}
			var ops []Op
			var resident []uint64 // unordered
			next := uint64(1)
			push := func() {
				resident = append(resident, next)
				ops = append(ops, Op{Kind: OpPush, Value: next})
				o.Insert(next)
				next++
			}
			dist := func(v uint64) (d int) {
				for _, u := range resident {
					if u > v && !fifo || u < v && fifo {
						d++
					}
				}
				return d
			}
			pop := func(i int) int {
				v := resident[i]
				d := dist(v)
				resident[i] = resident[len(resident)-1]
				resident = resident[:len(resident)-1]
				ops = append(ops, Op{Kind: OpPop, Value: v})
				if got := o.Remove(v); got != d {
					t.Fatalf("%s seed %d: oracle distance %d for label %d, counted %d", name, seed, got, v, d)
				}
				return d
			}
			naiveMax := 0
			for range 400 {
				switch {
				case len(resident) == 0 && r.Intn(4) == 0:
					ops = append(ops, Op{Kind: OpPop, Empty: true})
				case len(resident) == 0 || r.Intn(5) < 3:
					push()
				default:
					naiveMax = max(naiveMax, pop(r.Intn(len(resident))))
				}
			}
			rep, err := check(ops, int64(naiveMax))
			if err != nil || rep.MaxDistance != naiveMax || rep.MaxSlack != 0 {
				t.Fatalf("%s seed %d: check at k=%d = (%+v, %v), want MaxDistance %d with no slack", name, seed, naiveMax, rep, err, naiveMax)
			}

			// Plant one pop at distance naiveMax+1: with naiveMax+2 fresh
			// labels on top, some resident sits exactly there.
			for range naiveMax + 2 {
				push()
			}
			planted := -1
			for i, v := range resident {
				if dist(v) == naiveMax+1 {
					planted = len(ops)
					pop(i)
					break
				}
			}
			if planted < 0 {
				t.Fatalf("%s seed %d: no resident at distance %d", name, seed, naiveMax+1)
			}
			if _, err := check(ops, int64(naiveMax)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("op %d:", planted)) {
				t.Fatalf("%s seed %d: planted pop at distance %d, check at k=%d: %v", name, seed, naiveMax+1, naiveMax, err)
			}
			if _, err := check(ops, int64(naiveMax+1)); err != nil {
				t.Fatalf("%s seed %d: check at k=%d rejects the planted pop: %v", name, seed, naiveMax+1, err)
			}
		}
	}
}
