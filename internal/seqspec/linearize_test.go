package seqspec

import "testing"

func seqOp(kind OpKind, v uint64, empty bool, at *int64) IntervalOp {
	*at += 2
	return IntervalOp{Kind: kind, Value: v, Empty: empty, Begin: *at - 1, End: *at}
}

// forEachOrder runs f as one subtest per order: the stack's LIFO search and
// the queue's FIFO search.
func forEachOrder(t *testing.T, f func(t *testing.T, lifo bool, check func([]IntervalOp) error)) {
	t.Run("lifo", func(t *testing.T) { f(t, true, CheckLinearizableLIFO) })
	t.Run("fifo", func(t *testing.T) { f(t, false, CheckLinearizableFIFO) })
}

func TestLinearizableEmptyHistory(t *testing.T) {
	if err := CheckLinearizableLIFO(nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinearizableSequentialLIFO(t *testing.T) {
	var clock int64
	ops := []IntervalOp{
		seqOp(OpPush, 1, false, &clock),
		seqOp(OpPush, 2, false, &clock),
		seqOp(OpPop, 2, false, &clock),
		seqOp(OpPop, 1, false, &clock),
		seqOp(OpPop, 0, true, &clock),
	}
	if err := CheckLinearizableLIFO(ops); err != nil {
		t.Fatal(err)
	}
}

func TestRejectsSequentialFIFOOrder(t *testing.T) {
	var clock int64
	ops := []IntervalOp{
		seqOp(OpPush, 1, false, &clock),
		seqOp(OpPush, 2, false, &clock),
		seqOp(OpPop, 1, false, &clock), // FIFO order: illegal for a stack
	}
	if err := CheckLinearizableLIFO(ops); err == nil {
		t.Fatal("sequential FIFO history accepted as LIFO-linearizable")
	}
}

func TestAcceptsOverlapReordering(t *testing.T) {
	// push(1) and push(2) overlap; a pop after both may return either,
	// because the pushes can linearize in either order.
	ops := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 10},
		{Kind: OpPush, Value: 2, Begin: 0, End: 10},
		{Kind: OpPop, Value: 1, Begin: 11, End: 12},
		{Kind: OpPop, Value: 2, Begin: 13, End: 14},
	}
	if err := CheckLinearizableLIFO(ops); err != nil {
		t.Fatalf("overlapping pushes reordering rejected: %v", err)
	}
}

func TestRejectsRealTimeViolation(t *testing.T) {
	// push(1) completes, THEN push(2) completes, THEN two pops in
	// sequence take them from the wrong end — 1 first for a stack, 2 first
	// for a queue — impossible in real time.
	forEachOrder(t, func(t *testing.T, lifo bool, check func([]IntervalOp) error) {
		first := uint64(2)
		if lifo {
			first = 1
		}
		var clock int64
		ops := []IntervalOp{
			seqOp(OpPush, 1, false, &clock),
			seqOp(OpPush, 2, false, &clock),
			seqOp(OpPop, first, false, &clock),
			seqOp(OpPop, 3-first, false, &clock),
		}
		if err := check(ops); err == nil {
			t.Fatal("real-time violation accepted")
		}
	})
}

func TestAcceptsEliminationPair(t *testing.T) {
	// A pop overlapping a push may take its value even while older items
	// sit on the stack: push(9) linearizes immediately before pop(9).
	var clock int64
	ops := []IntervalOp{
		seqOp(OpPush, 1, false, &clock),
		{Kind: OpPush, Value: 9, Begin: clock + 1, End: clock + 10},
		{Kind: OpPop, Value: 9, Begin: clock + 2, End: clock + 9},
		{Kind: OpPop, Value: 1, Begin: clock + 20, End: clock + 21},
	}
	if err := CheckLinearizableLIFO(ops); err != nil {
		t.Fatalf("elimination pair rejected: %v", err)
	}
}

func TestRejectsFalseEmptyLinearization(t *testing.T) {
	forEachOrder(t, func(t *testing.T, _ bool, check func([]IntervalOp) error) {
		var clock int64
		ops := []IntervalOp{
			seqOp(OpPush, 1, false, &clock),
			seqOp(OpPop, 0, true, &clock), // empty after a completed push: illegal
			seqOp(OpPop, 1, false, &clock),
		}
		if err := check(ops); err == nil {
			t.Fatal("false empty accepted")
		}
	})
}

func TestAcceptsEmptyConcurrentWithPush(t *testing.T) {
	ops := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 10},
		{Kind: OpPop, Empty: true, Begin: 1, End: 5}, // may linearize first
		{Kind: OpPop, Value: 1, Begin: 11, End: 12},
	}
	forEachOrder(t, func(t *testing.T, _ bool, check func([]IntervalOp) error) {
		if err := check(ops); err != nil {
			t.Fatalf("legal concurrent empty rejected: %v", err)
		}
	})
}

func TestRejectsMalformedInterval(t *testing.T) {
	ops := []IntervalOp{{Kind: OpPush, Value: 1, Begin: 5, End: 1}}
	forEachOrder(t, func(t *testing.T, _ bool, check func([]IntervalOp) error) {
		if err := check(ops); err == nil {
			t.Fatal("malformed interval accepted")
		}
	})
}

func TestRejectsOversizeHistory(t *testing.T) {
	ops := make([]IntervalOp, MaxLinearizableOps+1)
	for i := range ops {
		ops[i] = IntervalOp{Kind: OpPush, Value: uint64(i), Begin: int64(2 * i), End: int64(2*i + 1)}
	}
	if err := CheckLinearizableLIFO(ops); err == nil {
		t.Fatal("oversize history accepted")
	}
}

func TestDeepInterleavingSolvable(t *testing.T) {
	// All ops mutually overlapping: any order is allowed by real time; the
	// checker must find one of the many valid linearizations.
	ops := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 100},
		{Kind: OpPush, Value: 2, Begin: 0, End: 100},
		{Kind: OpPush, Value: 3, Begin: 0, End: 100},
		{Kind: OpPop, Value: 2, Begin: 0, End: 100},
		{Kind: OpPop, Value: 3, Begin: 0, End: 100},
		{Kind: OpPop, Value: 1, Begin: 0, End: 100},
		{Kind: OpPop, Empty: true, Begin: 0, End: 100},
	}
	forEachOrder(t, func(t *testing.T, _ bool, check func([]IntervalOp) error) {
		if err := check(ops); err != nil {
			t.Fatalf("solvable interleaving rejected: %v", err)
		}
	})
}

func TestFIFOLinearizableSequential(t *testing.T) {
	var clock int64
	ops := []IntervalOp{
		seqOp(OpPush, 1, false, &clock),
		seqOp(OpPush, 2, false, &clock),
		seqOp(OpPop, 1, false, &clock),
		seqOp(OpPop, 2, false, &clock),
		seqOp(OpPop, 0, true, &clock),
	}
	if err := CheckLinearizableFIFO(ops); err != nil {
		t.Fatal(err)
	}
}

func TestFIFORejectsLIFOOrder(t *testing.T) {
	var clock int64
	ops := []IntervalOp{
		seqOp(OpPush, 1, false, &clock),
		seqOp(OpPush, 2, false, &clock),
		seqOp(OpPop, 2, false, &clock), // LIFO order: illegal for a queue
	}
	if err := CheckLinearizableFIFO(ops); err == nil {
		t.Fatal("sequential LIFO history accepted as FIFO-linearizable")
	}
}

func TestFIFOAcceptsOverlapReorder(t *testing.T) {
	ops := []IntervalOp{
		{Kind: OpPush, Value: 1, Begin: 0, End: 10},
		{Kind: OpPush, Value: 2, Begin: 0, End: 10},
		{Kind: OpPop, Value: 2, Begin: 11, End: 12},
		{Kind: OpPop, Value: 1, Begin: 13, End: 14},
	}
	if err := CheckLinearizableFIFO(ops); err != nil {
		t.Fatalf("overlapping enqueues reordering rejected: %v", err)
	}
}

func TestFIFORejectsOversize(t *testing.T) {
	ops := make([]IntervalOp, MaxLinearizableOps+1)
	for i := range ops {
		ops[i] = IntervalOp{Kind: OpPush, Value: uint64(i), Begin: int64(2 * i), End: int64(2*i + 1)}
	}
	if err := CheckLinearizableFIFO(ops); err == nil {
		t.Fatal("oversize history accepted")
	}
}

func TestFIFOEmptyHistoryAndMalformed(t *testing.T) {
	if err := CheckLinearizableFIFO(nil); err != nil {
		t.Fatal(err)
	}
	bad := []IntervalOp{{Kind: OpPush, Value: 1, Begin: 9, End: 1}}
	if err := CheckLinearizableFIFO(bad); err == nil {
		t.Fatal("malformed interval accepted")
	}
}
