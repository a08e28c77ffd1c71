package multistack

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
		{"random", Config{Width: 4, Policy: Random}, true},
		{"c2", Config{Width: 4, Policy: RandomC2}, true},
		{"robin", Config{Width: 4, Policy: RoundRobin}, true},
		{"width 1", Config{Width: 1, Policy: Random}, true},
		{"zero width", Config{Width: 0, Policy: Random}, false},
		{"bad policy", Config{Width: 4, Policy: Policy(99)}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	if Random.String() != "random" || RandomC2.String() != "random-c2" || RoundRobin.String() != "k-robin" {
		t.Fatal("policy names drifted from the paper's")
	}
	if Policy(9).String() != "Policy(9)" {
		t.Fatalf("unknown policy formatting: %s", Policy(9))
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(zero Config) did not panic")
		}
	}()
	MustNew[int](Config{})
}

func policies() []Policy { return []Policy{Random, RandomC2, RoundRobin} }

func TestEmptyPopAllPolicies(t *testing.T) {
	for _, p := range policies() {
		s := MustNew[int](Config{Width: 4, Policy: p})
		h := s.NewHandle()
		if _, ok := h.Pop(); ok {
			t.Errorf("%v: Pop on empty returned ok", p)
		}
	}
}

func TestPushPopSingleAllPolicies(t *testing.T) {
	for _, p := range policies() {
		s := MustNew[int](Config{Width: 4, Policy: p})
		h := s.NewHandle()
		h.Push(7)
		if v, ok := h.Pop(); !ok || v != 7 {
			t.Errorf("%v: Pop = (%d,%v), want (7,true)", p, v, ok)
		}
		if _, ok := h.Pop(); ok {
			t.Errorf("%v: Pop after drain returned ok", p)
		}
	}
}

func TestWidthOneIsStrictAllPolicies(t *testing.T) {
	for _, p := range policies() {
		s := MustNew[uint64](Config{Width: 1, Policy: p})
		h := s.NewHandle()
		for v := uint64(0); v < 100; v++ {
			h.Push(v)
		}
		for want := uint64(99); ; want-- {
			v, ok := h.Pop()
			if !ok {
				if want != ^uint64(0) { // wrapped below zero means drained exactly
					t.Errorf("%v: premature empty at %d", p, want)
				}
				break
			}
			if v != want {
				t.Errorf("%v: Pop = %d, want %d", p, v, want)
				break
			}
			if want == 0 {
				if _, ok := h.Pop(); ok {
					t.Errorf("%v: extra item after drain", p)
				}
				break
			}
		}
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Policy: RoundRobin})
	h := s.NewHandle()
	for i := 0; i < 400; i++ {
		h.Push(i)
	}
	for i, c := range s.SubCounts() {
		if c != 100 {
			t.Fatalf("sub-stack %d holds %d items, want exactly 100 (round robin): %v", i, c, s.SubCounts())
		}
	}
}

func TestRandomSpreadsRoughly(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Policy: Random})
	h := s.NewHandle()
	const n = 4000
	for i := 0; i < n; i++ {
		h.Push(i)
	}
	for i, c := range s.SubCounts() {
		if c < n/4-n/10 || c > n/4+n/10 {
			t.Fatalf("sub-stack %d holds %d items, want ~%d: %v", i, c, n/4, s.SubCounts())
		}
	}
}

func TestC2BalancesBetterThanRandom(t *testing.T) {
	// Power-of-two-choices keeps the max/min spread tight; with pure
	// random it is noticeably wider. Compare imbalance at equal load.
	spread := func(policy Policy) int {
		s := MustNew[int](Config{Width: 8, Policy: policy})
		h := s.NewHandle()
		for i := 0; i < 8000; i++ {
			h.Push(i)
		}
		counts := s.SubCounts()
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max - min
	}
	c2 := spread(RandomC2)
	if c2 > 2 {
		// Greedy two-choice placement with exact counters keeps the spread
		// within one item of perfect balance.
		t.Fatalf("random-c2 spread = %d, want <= 2", c2)
	}
}

func TestPopSweepsToNonEmpty(t *testing.T) {
	// Even if the scheduler picks an empty sub-stack, Pop must find the
	// item rather than reporting empty.
	for _, p := range policies() {
		s := MustNew[int](Config{Width: 8, Policy: p})
		h := s.NewHandle()
		h.Push(42)
		for i := 0; i < 8; i++ { // several attempts, all must succeed once
			if v, ok := h.Pop(); !ok || v != 42 {
				t.Errorf("%v: Pop = (%d,%v), want (42,true)", p, v, ok)
			}
			h.Push(42)
		}
	}
}

func TestValueConservationSequentialAllPolicies(t *testing.T) {
	for _, p := range policies() {
		s := MustNew[uint64](Config{Width: 5, Policy: p})
		h := s.NewHandle()
		const n = 3000
		for v := uint64(0); v < n; v++ {
			h.Push(v)
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			if seen[v] {
				t.Errorf("%v: value %d popped twice", p, v)
			}
			seen[v] = true
		}
		if len(seen) != n {
			t.Errorf("%v: recovered %d values, want %d", p, len(seen), n)
		}
	}
}

func TestConcurrentConservationAllPolicies(t *testing.T) {
	for _, p := range policies() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			const (
				workers = 8
				perW    = 2000
			)
			s := MustNew[uint64](Config{Width: 8, Policy: p})
			popped := make([][]uint64, workers)
			var wg sync.WaitGroup
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
			seen := make(map[uint64]int)
			for _, vs := range popped {
				for _, v := range vs {
					seen[v]++
				}
			}
			for _, v := range s.Drain() {
				seen[v]++
			}
			if len(seen) != workers*perW {
				t.Fatalf("recovered %d distinct values, want %d", len(seen), workers*perW)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("value %d recovered %d times", v, n)
				}
			}
		})
	}
}

func TestTwoChoicesDistinct(t *testing.T) {
	s := MustNew[int](Config{Width: 8, Policy: RandomC2})
	h := s.NewHandle()
	for trial := 0; trial < 1000; trial++ {
		i, j := h.twoChoices()
		if i == j {
			t.Fatalf("twoChoices returned equal indexes %d with width 8", i)
		}
		if i < 0 || i >= 8 || j < 0 || j >= 8 {
			t.Fatalf("twoChoices out of range: %d, %d", i, j)
		}
	}
}

func TestTwoChoicesWidthOne(t *testing.T) {
	s := MustNew[int](Config{Width: 1, Policy: RandomC2})
	h := s.NewHandle()
	i, j := h.twoChoices()
	if i != 0 || j != 0 {
		t.Fatalf("twoChoices with width 1 = (%d,%d), want (0,0)", i, j)
	}
}

// Property: conservation for arbitrary scripts across policies.
func TestPropertyConservation(t *testing.T) {
	f := func(widthRaw, policyRaw uint8, script []bool) bool {
		width := int(widthRaw%6) + 1
		policy := policies()[int(policyRaw)%3]
		s := MustNew[uint64](Config{Width: width, Policy: policy})
		h := s.NewHandle()
		pushed := 0
		recovered := make(map[uint64]bool)
		next := uint64(1)
		for _, isPush := range script {
			if isPush {
				h.Push(next)
				next++
				pushed++
			} else if v, ok := h.Pop(); ok {
				if recovered[v] {
					return false
				}
				recovered[v] = true
			}
		}
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			if recovered[v] {
				return false
			}
			recovered[v] = true
		}
		return len(recovered) == pushed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestRoundRobinDrainIsPopOrder pins that Drain returns k-robin's items in
// an order its Pop realises, the pop order relax.Backend.Drain promises
// and an engine swap charges only min(KBound, migrated − 1) for: after 400
// sequential pushes through one handle at width 4, every drained item is
// within the round-robin estimate 2·P·(w−1) = 6 (relax.KRobinBound(4, 1))
// of its LIFO position. Concatenating the sub-stacks, as Drain once did,
// displaced an item by 298.
func TestRoundRobinDrainIsPopOrder(t *testing.T) {
	const n = 400
	s := MustNew[uint64](Config{Width: 4, Policy: RoundRobin})
	h := s.NewHandle()
	var ops []seqspec.Op
	for v := uint64(1); v <= n; v++ {
		h.Push(v)
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
	}
	for _, v := range s.Drain() {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v})
	}
	rep, err := (seqspec.KStackChecker{K: int64(len(ops))}).Check(seqspec.SequentialIntervals(ops))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pops != n || rep.MaxDistance > 6 {
		t.Fatalf("Drain returned %d of %d items, maximum distance %d from LIFO, want every item within 6", rep.Pops, n, rep.MaxDistance)
	}
}
