package core

import (
	"testing"

	"stack2d/internal/yield"
)

// TestOpAllocsPinned pins the steady-state allocation cost of the hot path,
// sampling branch included (AllocsPerRun's iteration count crosses many
// 1-in-64 sampling strides): Push allocates exactly its node and the
// replacement descriptor, Pop only the replacement descriptor. The latency
// sampler must add nothing — the countdown is a plain field decrement and
// time.Now does not allocate — and neither must an installed structural
// observer, which is never read on the operation path.
func TestOpAllocsPinned(t *testing.T) {
	run := func(t *testing.T, s *Stack[uint64]) {
		h := s.NewHandle()
		var i uint64
		if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++ }); got != 2 {
			t.Fatalf("Push allocates %v per op, pinned at 2 (node + descriptor)", got)
		}
		if got := testing.AllocsPerRun(5000, func() { h.Pop() }); got != 1 {
			t.Fatalf("Pop allocates %v per op, pinned at 1 (descriptor)", got)
		}
	}
	t.Run("no-observer", func(t *testing.T) {
		run(t, MustNew[uint64](Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2}))
	})
	t.Run("observer-installed", func(t *testing.T) {
		s := MustNew[uint64](Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2})
		s.SetObserver(countingObserver{})
		run(t, s)
	})
	// The director's yield gates must not change the pinned costs either
	// way: nil (production) is the baseline above; an armed no-op hook may
	// add indirect calls on the slow paths but never an allocation.
	t.Run("gate-armed-noop", func(t *testing.T) {
		yield.Gate = func(yield.Point) {}
		defer func() { yield.Gate = nil }()
		// Depth 1 churns the window so the window-move gate site actually
		// executes inside the measured loop.
		s := MustNew[uint64](Config{Width: 1, Depth: 1, Shift: 1, RandomHops: 0})
		h := s.NewHandle()
		var i uint64
		if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++; h.Pop() }); got != 3 {
			t.Fatalf("armed-gate Push+Pop allocates %v per pair, pinned at 3 (node + 2 descriptors)", got)
		}
	})
}

// TestBufferedAllocsAmortised pins the combined-publication payoff: with an
// op buffer of cap 16, a buffered push/pop pair amortises to strictly less
// than one allocation per operation. A publish costs one node slab plus one
// descriptor per CAS group and a refill one descriptor per group, so the
// steady state is about 3/cap allocations per pair — against 3 for the
// unbuffered pair pinned above.
func TestBufferedAllocsAmortised(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2})
	h := s.NewHandle()
	h.SetOpBuffer(16)
	// Drive push-heavy then pop-heavy windows so both the publish and the
	// refill paths run inside the measured loop (a strict pair would elide
	// every pop against its pending push and never touch the structure).
	var i uint64
	got := testing.AllocsPerRun(5000, func() {
		for j := 0; j < 16; j++ {
			h.BufferedPush(i)
			i++
		}
		for j := 0; j < 16; j++ {
			if _, ok := h.BufferedPop(); !ok {
				t.Fatal("BufferedPop missed with items available")
			}
		}
	})
	// 32 ops per run; < 32 allocs/run means < 1 alloc/op. The measured
	// steady state is ~3 (slab + 2 descriptors); leave slack for an extra
	// CAS-split group without letting a per-op regression slip through.
	if got >= 16 {
		t.Fatalf("buffered cycle allocates %v per 32 ops — amortisation lost (want < 16, ~3 expected)", got)
	}
}

// TestBufferedProbesAmortised pins the combined-publication payoff in
// search work, which unlike wall-clock speed does not depend on the host:
// one handle cycling 16 pushes then 16 pops probes about once per
// operation plain, but with an op buffer of cap 16 one publish and one
// refill serve each 16 operations, so probes per operation must fall to at
// most 1/8 of plain (about 1/16 expected) at the uncontended and the
// contended default geometry alike.
func TestBufferedProbesAmortised(t *testing.T) {
	for _, p := range []int{1, 16} {
		probesPerOp := func(bufCap int) float64 {
			s := MustNew[uint64](DefaultConfig(p))
			h := s.NewHandle()
			if bufCap > 0 {
				h.SetOpBuffer(bufCap)
			}
			var v uint64
			for r := 0; r < 2000; r++ {
				for j := 0; j < 16; j++ {
					h.BufferedPush(v)
					v++
				}
				for j := 0; j < 16; j++ {
					if _, ok := h.BufferedPop(); !ok {
						t.Fatal("BufferedPop missed with items available")
					}
				}
			}
			return h.Stats().ProbesPerOp()
		}
		plain, buffered := probesPerOp(0), probesPerOp(16)
		if buffered > plain/8 {
			t.Errorf("P=%d: buffered probes/op %.3f above 1/8 of plain %.3f — publication stopped batching",
				p, buffered, plain)
		}
	}
}

type countingObserver struct{}

func (countingObserver) ObserveStruct(StructEvent) {}
