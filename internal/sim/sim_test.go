package sim

import (
	"testing"

	"stack2d/internal/core"
)

func TestMachineValidate(t *testing.T) {
	if err := DefaultMachine().Validate(); err != nil {
		t.Fatalf("DefaultMachine invalid: %v", err)
	}
	bad := []Machine{
		{},
		{Sockets: 1, CoresPerSocket: 1, LocalCost: 0, IntraSocketCost: 1, InterSocketCost: 1},
		{Sockets: 1, CoresPerSocket: 1, LocalCost: 5, IntraSocketCost: 2, InterSocketCost: 10},
		{Sockets: 1, CoresPerSocket: 1, LocalCost: 1, IntraSocketCost: 2, InterSocketCost: 1},
		{Sockets: 1, CoresPerSocket: 1, LocalCost: 1, IntraSocketCost: 1, InterSocketCost: 1, ComputePerOp: -1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("bad machine %d accepted: %+v", i, m)
		}
	}
	if got := DefaultMachine().Cores(); got != 16 {
		t.Fatalf("DefaultMachine.Cores = %d, want 16", got)
	}
}

func TestSingleThreadDeterministic(t *testing.T) {
	run := func() ([]int64, int64) {
		s := MustNew(DefaultMachine())
		w := s.NewWord(0)
		var final int64
		s.Go(0, func(t *T) {
			for t.Running() {
				v := t.Read(w)
				if !t.CAS(w, v, v+1) {
					panic("uncontended CAS failed")
				}
				t.OpDone()
			}
			final = t.Clock()
		})
		ops := s.Run(10000)
		return ops, final
	}
	ops1, clk1 := run()
	ops2, clk2 := run()
	if ops1[0] != ops2[0] || clk1 != clk2 {
		t.Fatalf("simulation not deterministic: %v/%d vs %v/%d", ops1, clk1, ops2, clk2)
	}
	if ops1[0] == 0 {
		t.Fatal("no operations completed")
	}
	if clk1 < 10000 {
		t.Fatalf("thread stopped at clock %d before horizon", clk1)
	}
}

func TestLocalReadsAreCheapAfterCaching(t *testing.T) {
	m := DefaultMachine()
	s := MustNew(m)
	w := s.NewWord(7)
	var first, second int64
	s.Go(0, func(t *T) {
		c0 := t.Clock()
		t.Read(w)
		first = t.Clock() - c0
		c1 := t.Clock()
		t.Read(w)
		second = t.Clock() - c1
	})
	s.Run(0) // horizon 0: body still runs once through (no Running loop)
	if first != m.LocalCost || second != m.LocalCost {
		t.Fatalf("cold unowned read/local re-read cost = %d/%d, want %d/%d",
			first, second, m.LocalCost, m.LocalCost)
	}
}

func TestCoherenceTransferCosts(t *testing.T) {
	m := DefaultMachine()
	s := MustNew(m)
	w := s.NewWord(0)
	// Thread A (core 0) writes; thread B (core 1, same socket) then reads;
	// thread C (core 8, other socket) then reads. Sequence forced via
	// Compute offsets.
	var bCost, cCost int64
	s.Go(0, func(t *T) {
		t.Write(w, 1)
	})
	s.Go(1, func(t *T) {
		t.Compute(500) // run after A's write
		c := t.Clock()
		t.Read(w)
		bCost = t.Clock() - c
	})
	s.Go(8, func(t *T) {
		t.Compute(1000)
		c := t.Clock()
		t.Read(w)
		cCost = t.Clock() - c
	})
	s.Run(0)
	if bCost != m.IntraSocketCost {
		t.Fatalf("same-socket transfer cost = %d, want %d", bCost, m.IntraSocketCost)
	}
	if cCost != m.InterSocketCost {
		t.Fatalf("cross-socket transfer cost = %d, want %d", cCost, m.InterSocketCost)
	}
}

func TestCASConflictDetected(t *testing.T) {
	// Two threads CAS the same word from the same observed value; exactly
	// one must succeed.
	s := MustNew(DefaultMachine())
	w := s.NewWord(0)
	results := make([]bool, 2)
	for i := 0; i < 2; i++ {
		i := i
		s.Go(i, func(t *T) {
			v := t.Read(w)
			results[i] = t.CAS(w, v, v+1)
		})
	}
	s.Run(0)
	if results[0] == results[1] {
		t.Fatalf("CAS conflict not serialised: %v", results)
	}
	if w.value != 1 {
		t.Fatalf("word value = %d, want 1", w.value)
	}
}

func TestThroughputRejectsBadArgs(t *testing.T) {
	m := DefaultMachine()
	if _, err := Throughput(m, SimTreiber, 0, 1000); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Throughput(m, SimTreiber, 99, 1000); err == nil {
		t.Error("p beyond cores accepted")
	}
	if _, err := Throughput(m, SimTreiber, 1, 0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Throughput(m, AlgoName("nope"), 1, 1000); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAllAlgosProduceOps(t *testing.T) {
	m := DefaultMachine()
	for _, alg := range Algos() {
		thr, err := Throughput(m, alg, 4, 200000)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if thr <= 0 {
			t.Fatalf("%s: zero simulated throughput", alg)
		}
	}
}

// TestTreiberDoesNotScale is the core qualitative fact of the paper's
// Figure 2: the single-access-point stack loses throughput as threads are
// added (every op transfers the top line), while the 2D-Stack gains.
func TestTreiberDoesNotScale(t *testing.T) {
	m := DefaultMachine()
	const horizon = 300000
	t1, err := Throughput(m, SimTreiber, 1, horizon)
	if err != nil {
		t.Fatal(err)
	}
	t8, err := Throughput(m, SimTreiber, 8, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if t8 > t1*1.5 {
		t.Fatalf("simulated treiber scaled: P=1 %.1f -> P=8 %.1f ops/kcycle", t1, t8)
	}
}

func TestTwoDScalesWithThreads(t *testing.T) {
	m := DefaultMachine()
	const horizon = 300000
	d1, err := Throughput(m, SimTwoD, 1, horizon)
	if err != nil {
		t.Fatal(err)
	}
	d8, err := Throughput(m, SimTwoD, 8, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if d8 < d1*3 {
		t.Fatalf("simulated 2D-stack did not scale: P=1 %.1f -> P=8 %.1f ops/kcycle", d1, d8)
	}
}

// TestTwoDBeatsTreiberUnderContention: the headline comparison at high
// thread counts.
func TestTwoDBeatsTreiberUnderContention(t *testing.T) {
	m := DefaultMachine()
	const horizon = 300000
	d16, err := Throughput(m, SimTwoD, 16, horizon)
	if err != nil {
		t.Fatal(err)
	}
	t16, err := Throughput(m, SimTreiber, 16, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if d16 < 2*t16 {
		t.Fatalf("simulated 2D-stack (%.1f) does not clearly beat treiber (%.1f) at P=16", d16, t16)
	}
}

// TestTwoDQueueSegmentDeterministicAndContended checks the queue model the
// adapttune -queue convergence runs on: identical inputs reproduce
// identical work, and widening the structure relieves contention (fewer CAS
// failures per operation, more completed operations) exactly as the stack
// model does.
func TestTwoDQueueSegmentDeterministicAndContended(t *testing.T) {
	m := DefaultMachine()
	narrow := core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2}
	a, err := TwoDQueueSegment(m, narrow, 16, 100000, 42, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoDQueueSegment(m, narrow, 16, 100000, 42, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("segment not deterministic: %+v vs %+v", a, b)
	}
	wide, err := TwoDQueueSegment(m, core.Config{Width: 32, Depth: 8, Shift: 8, RandomHops: 2}, 16, 100000, 42, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if wide.Ops() <= a.Ops() {
		t.Fatalf("widening did not raise throughput: %d -> %d ops", a.Ops(), wide.Ops())
	}
	narrowCAS := float64(a.CASFailures) / float64(a.Ops())
	wideCAS := float64(wide.CASFailures) / float64(wide.Ops())
	if wideCAS >= narrowCAS {
		t.Fatalf("widening did not relieve contention: %.3f -> %.3f cas/op", narrowCAS, wideCAS)
	}
}

func TestTwoDQueueSegmentValidation(t *testing.T) {
	m := DefaultMachine()
	cases := []struct {
		width      int
		depth, shf int64
		hops, p    int
		horizon    int64
	}{
		{0, 8, 8, 2, 4, 1000},
		{4, 0, 1, 2, 4, 1000},
		{4, 8, 9, 2, 4, 1000},
		{4, 8, 8, -1, 4, 1000},
		{4, 8, 8, 2, 0, 1000},
		{4, 8, 8, 2, m.Cores() + 1, 1000},
		{4, 8, 8, 2, 4, 0},
	}
	for _, c := range cases {
		cfg := core.Config{Width: c.width, Depth: c.depth, Shift: c.shf, RandomHops: c.hops}
		if _, err := TwoDQueueSegment(m, cfg, c.p, c.horizon, 1, nil, false); err == nil {
			t.Errorf("TwoDQueueSegment(%+v) accepted invalid input", c)
		}
	}
}
