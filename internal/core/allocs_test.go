package core

import (
	"runtime"
	"testing"

	"stack2d/internal/yield"
)

// TestOpAllocsPinned pins the steady-state allocation cost of the hot path,
// sampling branch included (AllocsPerRun's iteration count crosses many
// 1-in-64 sampling strides): a push with nothing to reuse allocates exactly
// its descriptor, which embeds the pushed node, and Pop nothing — it
// re-installs the state the popped item was pushed over and retires the
// descriptor it removed (DESIGN.md §3); once pops have retired descriptors
// and their grace period has passed, a push reuses one and a Push+Pop
// cycle allocates nothing. The latency sampler must add nothing — the
// countdown is a plain field decrement and time.Now does not allocate —
// and neither must an installed structural observer, which is never read
// on the operation path.
func TestOpAllocsPinned(t *testing.T) {
	run := func(t *testing.T, s *Stack[uint64]) {
		h := s.NewHandle()
		var i uint64
		if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++ }); got != 1 {
			t.Fatalf("Push allocates %v per op, pinned at 1 (descriptor with its node)", got)
		}
		if got := testing.AllocsPerRun(5000, func() { h.Pop() }); got != 0 {
			t.Fatalf("Pop allocates %v per op, pinned at 0 (re-installs the state below)", got)
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
		cycle := func() { h.Push(i); i++; h.Pop() }
		for range 4 { // the first cycles fill the limbo and allocate its sets
			cycle()
		}
		if got := allocsTotal(10000, cycle); got != 0 {
			t.Fatalf("armed-gate Push+Pop pairs allocate %d times in 10000, pinned at 0 (the push reuses a retired descriptor)", got)
		}
	})
	// The benchmark geometry: once the handle's pops have retired
	// descriptors, each push reuses one.
	t.Run("steady-state", func(t *testing.T) {
		s := MustNew[uint64](DefaultConfig(2))
		h := s.NewHandle()
		var i uint64
		for ; i < 1000; i++ {
			h.Push(i)
		}
		cycle := func() { h.Push(i); i++; h.Pop() }
		for range 4 {
			cycle()
		}
		if got := allocsTotal(10000, cycle); got != 0 {
			t.Fatalf("Push+Pop cycles allocate %d times in 10000, pinned at 0 (the push reuses a retired descriptor)", got)
		}
	})
	// A singleton pop that stops inside a batch-pushed group builds its new
	// state in a descriptor of its own: once the handle holds a group's
	// worth of reusable descriptors, it takes them from there.
	t.Run("batch-group-pops", func(t *testing.T) {
		s := MustNew[uint64](Config{Width: 1, Depth: 1024, Shift: 1024, RandomHops: 0})
		h := s.NewHandle()
		const group = 64
		for r := 0; r < 2; r++ {
			for v := uint64(0); v < group; v++ {
				h.Push(v)
			}
			for v := 0; v < group; v++ {
				h.Pop()
			}
		}
		// The pushes above spent the first round's retirements; Push+Pop
		// cycles move the era until the second round's are reusable.
		reusable := func() int {
			n, era := 0, s.era.V.Load()
			for n < h.ring.n && h.ring.buf[(h.ring.head+n)%recycleCap].era+2 <= era {
				n++
			}
			return n
		}
		for n := 0; reusable() < group-1; n++ {
			if n == 8 {
				t.Fatalf("after %d Push+Pop cycles the handle holds %d reusable descriptors, want %d", n, reusable(), group-1)
			}
			h.Push(0)
			h.Pop()
		}
		vs := make([]uint64, group)
		h.PushBatch(vs)
		if got := allocsTotal(group-2, func() { h.Pop() }); got != 0 {
			t.Fatalf("%d Pops through a batch-pushed group allocate %d times, want 0 (each copied top in a reused descriptor)", group-1, got)
		}
		if got := s.Len(); got != 1 {
			t.Fatalf("Len = %d, want 1 (the group's lowest item)", got)
		}
	})
	// A published batch is a slab of m-1 nodes under one descriptor over
	// the previous state: a pop batch that takes exactly that batch
	// re-installs the previous state (measured through popBatchInto, the
	// op buffer's refill; PopBatch adds only its result slice), and a
	// single Pop that stops inside it copies its new top item into one
	// fresh descriptor. Depth 1024 keeps all 101 batches of 8 inside one
	// window, so every pop batch takes exactly one.
	t.Run("batches", func(t *testing.T) {
		s := MustNew[uint64](Config{Width: 1, Depth: 1024, Shift: 1024, RandomHops: 0})
		h := s.NewHandle()
		h.Push(0)
		vs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
		if got := testing.AllocsPerRun(100, func() { h.PushBatch(vs) }); got != 2 {
			t.Fatalf("PushBatch of 8 allocates %v, pinned at 2 (slab + descriptor)", got)
		}
		out := make([]uint64, 0, len(vs))
		if got := testing.AllocsPerRun(100, func() { out = h.popBatchInto(out[:0], len(vs)) }); got != 0 {
			t.Fatalf("pop batch of exactly one published batch allocates %v, pinned at 0", got)
		}
		h.PushBatch(vs)
		if got := testing.AllocsPerRun(5, func() { h.Pop() }); got != 1 {
			t.Fatalf("Pop through the middle of a batch allocates %v, pinned at 1 (its copied top; nothing retired is reusable yet)", got)
		}
		if got := s.Len(); got != 3 {
			t.Fatalf("Len = %d, want 3 (the base item and the batch's lowest two)", got)
		}
	})
}

// TestBufferedAllocsAmortised pins the combined-publication payoff: with an
// op buffer of cap 16, a cycle of 16 buffered pushes and 16 buffered pops
// allocates at most 2 times — against 16 for the same cycle unbuffered. A
// publish costs one node slab plus one descriptor per CAS group, and a
// refill that takes exactly the published group re-installs the state
// beneath it, allocating nothing.
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
	if got > 2 {
		t.Fatalf("buffered cycle allocates %v per 32 ops, want at most 2 (slab + descriptor)", got)
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

// allocsTotal returns the heap allocations of runs calls of f after one
// warm-up call, in total. AllocsPerRun reports the per-run average rounded
// down, which reads 0 for anything under one allocation per run.
func allocsTotal(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

type countingObserver struct{}

func (countingObserver) ObserveStruct(StructEvent) {}
