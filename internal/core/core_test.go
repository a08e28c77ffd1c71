package core

import (
	"sync"
	"testing"
	"testing/quick"

	"stack2d/internal/seqspec"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(4), true},
		{"minimal", Config{Width: 1, Depth: 1, Shift: 1}, true},
		{"zero width", Config{Width: 0, Depth: 1, Shift: 1}, false},
		{"zero depth", Config{Width: 1, Depth: 0, Shift: 1}, false},
		{"zero shift", Config{Width: 1, Depth: 4, Shift: 0}, false},
		{"shift beyond depth", Config{Width: 1, Depth: 4, Shift: 5}, false},
		{"negative hops", Config{Width: 1, Depth: 1, Shift: 1, RandomHops: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if (err == nil) != c.ok {
				t.Fatalf("Validate() = %v, want ok=%v", err, c.ok)
			}
			if _, err := New[int](c.cfg); (err == nil) != c.ok {
				t.Fatalf("New() error = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestDefaultConfigClampsP(t *testing.T) {
	cfg := DefaultConfig(0)
	if cfg.Width != 4 {
		t.Fatalf("DefaultConfig(0).Width = %d, want 4 (p clamped to 1)", cfg.Width)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DefaultConfig(0) invalid: %v", err)
	}
}

func TestTheorem1Bound(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int64
	}{
		{Config{Width: 1, Depth: 8, Shift: 8}, 0},  // strict
		{Config{Width: 2, Depth: 8, Shift: 8}, 24}, // (16+8)*1
		{Config{Width: 4, Depth: 64, Shift: 64}, (128 + 64) * 3},
		{Config{Width: 32, Depth: 1, Shift: 1}, 3 * 31},
		// shift < depth: the corrected constant weighs depth double, not
		// shift (DESIGN.md §2).
		{Config{Width: 2, Depth: 4, Shift: 1}, 9},  // (8+1)*1
		{Config{Width: 3, Depth: 4, Shift: 2}, 20}, // (8+2)*2
	}
	for _, c := range cases {
		if got := c.cfg.K(); got != c.want {
			t.Errorf("K(%+v) = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with invalid config did not panic")
		}
	}()
	MustNew[int](Config{})
}

func TestEmptyPop(t *testing.T) {
	s := MustNew[int](DefaultConfig(2))
	h := s.NewHandle()
	if v, ok := h.Pop(); ok {
		t.Fatalf("Pop on empty = (%d, true)", v)
	}
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("fresh stack not empty: Len=%d", s.Len())
	}
}

func TestPushPopSingle(t *testing.T) {
	s := MustNew[string](DefaultConfig(1))
	h := s.NewHandle()
	h.Push("x")
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if v, ok := h.Pop(); !ok || v != "x" {
		t.Fatalf("Pop = (%q, %v), want (x, true)", v, ok)
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("second Pop returned ok on empty stack")
	}
}

// TestWidthOneIsStrictLIFO: the degenerate 2D-Stack (width 1) must be an
// exact stack (k = 0 by Theorem 1).
func TestWidthOneIsStrictLIFO(t *testing.T) {
	cfg := Config{Width: 1, Depth: 4, Shift: 4, RandomHops: 2}
	s := MustNew[uint64](cfg)
	h := s.NewHandle()
	var m seqspec.Model
	for v := uint64(0); v < 500; v++ {
		h.Push(v)
		m.Push(v)
		if v%3 == 0 {
			got, gok := h.Pop()
			want, wok := m.Pop()
			if gok != wok || got != want {
				t.Fatalf("v=%d: Pop = (%d,%v), want (%d,%v)", v, got, gok, want, wok)
			}
		}
	}
	for {
		want, wok := m.Pop()
		got, gok := h.Pop()
		if gok != wok {
			t.Fatalf("emptiness diverged: model=%v stack=%v", wok, gok)
		}
		if !wok {
			return
		}
		if got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

// TestSingleThreadedKBound: driven sequentially, every pop distance must be
// within Theorem 1's k (sequential executions are a subset of concurrent
// ones, so this is a necessary condition).
func TestSingleThreadedKBound(t *testing.T) {
	cfgs := []Config{
		{Width: 2, Depth: 2, Shift: 1, RandomHops: 1},
		{Width: 4, Depth: 8, Shift: 8, RandomHops: 2},
		{Width: 8, Depth: 4, Shift: 2, RandomHops: 0},
	}
	for _, cfg := range cfgs {
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		// Mixed phases: fill, churn, drain.
		for i := 0; i < 300; i++ {
			h.Push(next)
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
			next++
		}
		for i := 0; i < 600; i++ {
			if i%2 == 0 {
				h.Push(next)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
				next++
			} else {
				v, ok := h.Pop()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			}
		}
		for {
			v, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			if !ok {
				break
			}
		}
		rep, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops))
		if err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
			continue
		}
		t.Logf("cfg %+v: k=%d maxObservedDist=%d", cfg, cfg.K(), rep.MaxDistance)
	}
}

// TestValueConservationSequential: everything pushed comes back exactly once.
func TestValueConservationSequential(t *testing.T) {
	s := MustNew[uint64](Config{Width: 6, Depth: 5, Shift: 3, RandomHops: 2})
	h := s.NewHandle()
	const n = 5000
	for v := uint64(0); v < n; v++ {
		h.Push(v)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	seen := make(map[uint64]bool, n)
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("recovered %d values, want %d", len(seen), n)
	}
	if !s.Empty() {
		t.Fatal("stack not empty after drain")
	}
}

func TestGlobalNeverBelowDepth(t *testing.T) {
	cfg := Config{Width: 3, Depth: 7, Shift: 7, RandomHops: 1}
	s := MustNew[int](cfg)
	h := s.NewHandle()
	for i := 0; i < 200; i++ {
		h.Push(i)
	}
	for {
		if _, ok := h.Pop(); !ok {
			break
		}
		if g := s.Global(); g < cfg.Depth {
			t.Fatalf("Global = %d fell below depth %d", g, cfg.Depth)
		}
	}
	if g := s.Global(); g != cfg.Depth {
		t.Fatalf("Global = %d after drain, want floor %d", g, cfg.Depth)
	}
}

func TestSubCountsMatchLen(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 4, Shift: 4, RandomHops: 2})
	h := s.NewHandle()
	for i := 0; i < 100; i++ {
		h.Push(i)
	}
	var sum int64
	for _, c := range s.SubCounts() {
		if c < 0 {
			t.Fatalf("negative sub-stack count: %v", s.SubCounts())
		}
		sum += c
	}
	if int(sum) != s.Len() || sum != 100 {
		t.Fatalf("SubCounts sum=%d Len=%d want 100", sum, s.Len())
	}
}

// TestWindowDisciplineSequential: with a single thread, no sub-stack's count
// may ever exceed Global (the window ceiling) after a push, nor drop below
// Global-depth while others are being popped... the enforceable invariant is
// count <= Global at the instant of a successful push, which sequentially
// means count <= Global always.
func TestWindowDisciplineSequential(t *testing.T) {
	cfg := Config{Width: 4, Depth: 3, Shift: 2, RandomHops: 1}
	s := MustNew[int](cfg)
	h := s.NewHandle()
	for i := 0; i < 400; i++ {
		h.Push(i)
		g := s.Global()
		for j, c := range s.SubCounts() {
			if c > g {
				t.Fatalf("after push %d: sub-stack %d count %d exceeds Global %d", i, j, c, g)
			}
		}
	}
}

func TestDrain(t *testing.T) {
	s := MustNew[int](DefaultConfig(2))
	h := s.NewHandle()
	for i := 0; i < 50; i++ {
		h.Push(i)
	}
	got := s.Drain()
	if len(got) != 50 {
		t.Fatalf("Drain returned %d items, want 50", len(got))
	}
	if !s.Empty() {
		t.Fatal("stack not empty after Drain")
	}
}

func TestTryPop(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	h := s.NewHandle()
	if _, ok := h.TryPop(); ok {
		t.Fatal("TryPop on empty succeeded")
	}
	h.Push(1)
	if v, ok := h.TryPop(); !ok || v != 1 {
		t.Fatalf("TryPop = (%d,%v), want (1,true)", v, ok)
	}
}

// Property: for arbitrary small configs and op scripts, the 2D-Stack is a
// legal k-out-of-order stack against the exact Theorem 1 constant
// K() = (2·depth + shift)·(width − 1) — every shift, no extra slack.
// (While the constant audit was open this test deflaked shift < depth
// against a looser interim bound; the audit is settled — DESIGN.md §2 —
// and the
// pinned counterexample that forced the deflake lives on in
// TestPropertySequentialKOutOfOrderPinnedCounterexample.)
func TestPropertySequentialKOutOfOrder(t *testing.T) {
	f := func(widthRaw, depthRaw, shiftRaw, hopsRaw uint8, script []bool) bool {
		width := int(widthRaw%6) + 1
		depth := int64(depthRaw%6) + 1
		shift := int64(shiftRaw)%depth + 1
		hops := int(hopsRaw % 3)
		cfg := Config{Width: width, Depth: depth, Shift: shift, RandomHops: hops}
		bound := cfg.K()
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		for _, isPush := range script {
			if isPush {
				h.Push(next)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
				next++
			} else {
				v, ok := h.Pop()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			}
		}
		for { // drain so conservation is also checked
			v, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			if !ok {
				break
			}
		}
		_, err := (seqspec.KStackChecker{K: bound}).Check(seqspec.SequentialIntervals(ops))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySequentialKOutOfOrderPinnedCounterexample pins the history
// that refuted the paper's transcribed Theorem-1 constant and forced the
// constant audit (ROADMAP item, settled by DESIGN.md §2): at width 2,
// depth 4, shift 1, fourteen pushes followed by a drain realise distance 7
// — beyond the retired shift-weighted transcription's 6, within the
// corrected K() = (2·depth + shift)(width − 1) = 9. The script must keep
// realising the excess (proving the pin is live, i.e. the corrected
// constant is not vacuously large here) and must pass the exact corrected
// bound. With RandomHops = 0 the sequential search is deterministic, so
// the realised distance is stable.
func TestPropertySequentialKOutOfOrderPinnedCounterexample(t *testing.T) {
	cfg := Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0}
	const retiredK = 6
	if cfg.K() != 9 {
		t.Fatalf("K() = %d, want 9", cfg.K())
	}
	s := MustNew[uint64](cfg)
	h := s.NewHandle()
	var ops []seqspec.Op
	for v := uint64(1); v <= 14; v++ {
		h.Push(v)
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
	}
	for {
		v, ok := h.Pop()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}
	rep, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops))
	if err != nil {
		t.Fatalf("corrected bound violated: %v", err)
	}
	if rep.MaxDistance != 7 {
		t.Fatalf("pinned script realised max distance %d, want 7 (> retired k=%d)", rep.MaxDistance, retiredK)
	}
}

func TestCheckInvariantsHoldsThroughLifecycle(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 4, Shift: 2, RandomHops: 1})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("fresh stack: %v", err)
	}
	h := s.NewHandle()
	for i := 0; i < 500; i++ {
		h.Push(i)
		if i%50 == 0 {
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("after %d pushes: %v", i+1, err)
			}
		}
	}
	for {
		if _, ok := h.Pop(); !ok {
			break
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

func TestCheckInvariantsAfterConcurrency(t *testing.T) {
	s := MustNew[uint64](DefaultConfig(4))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < 2000; i++ {
				h.Push(uint64(w*2000 + i))
				if i%3 == 0 {
					h.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
