package core

import (
	"testing"

	"stack2d/internal/xrand"
)

// singletonWork runs obs's TestObservabilityPlaneAddsNoWork sequence on one
// handle — eight stretches of 20 000 operations, push share alternating
// 65% and 35%, so the window climbs and falls — and returns the handle's
// counters without the wall-clock latency histogram.
func singletonWork(cfg Config) OpStats {
	s := MustNew[uint64](cfg)
	h := s.NewHandle()
	rng := xrand.New(1)
	var v uint64
	for stretch := 0; stretch < 8; stretch++ {
		pushPct := 65 - 30*(stretch%2)
		for i := 0; i < 20000; i++ {
			if rng.Intn(100) < pushPct {
				h.Push(v)
				v++
			} else {
				h.Pop()
			}
		}
	}
	st := h.Stats()
	st.Latency = [NumLatencyBuckets]uint64{}
	return st
}

// mixedWork drives every other op path through one fixed sequence:
// singleton pushes and pops, PushBatch and PopBatch of 1–12 values,
// TryPop, an op-buffered handle (cap 8, disarmed at the end so its pending
// pushes publish and its prefetch returns), a width halving while
// populated, more singleton traffic on the narrowed window, and a Drain.
// It returns the two handles' summed counters (latency cleared) and the
// drained count and sum; it fails t if any value was lost or duplicated.
func mixedWork(t *testing.T, cfg Config) (st OpStats, drained int, sum uint64) {
	t.Helper()
	s := MustNew[uint64](cfg)
	h := s.NewHandle()
	rng := xrand.New(2)
	var v, pushedSum, poppedSum uint64
	take := func(x uint64, ok bool) {
		if ok {
			poppedSum += x
		}
	}
	batch := make([]uint64, 0, 12)
	for i := 0; i < 6000; i++ {
		switch r := rng.Intn(10); {
		case r < 3:
			h.Push(v)
			pushedSum += v
			v++
		case r < 5:
			batch = batch[:0]
			for n := 1 + rng.Intn(12); n > 0; n-- {
				batch = append(batch, v)
				pushedSum += v
				v++
			}
			h.PushBatch(batch)
		case r < 7:
			take(h.Pop())
		case r < 8:
			take(h.TryPop())
		default:
			for _, x := range h.PopBatch(1 + rng.Intn(12)) {
				poppedSum += x
			}
		}
	}
	b := s.NewHandle()
	b.SetOpBuffer(8)
	for i := 0; i < 6000; i++ {
		if rng.Intn(100) < 55 {
			b.BufferedPush(v)
			pushedSum += v
			v++
		} else {
			take(b.BufferedPop())
		}
	}
	b.SetOpBuffer(0)
	if err := s.SetWidth(cfg.Width / 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if rng.Intn(100) < 50 {
			h.Push(v)
			pushedSum += v
			v++
		} else {
			take(h.Pop())
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	out := s.Drain()
	for _, x := range out {
		sum += x
	}
	if pushedSum-poppedSum != sum {
		t.Fatalf("drained sum %d, want %d (pushed %d - popped %d)", sum, pushedSum-poppedSum, pushedSum, poppedSum)
	}
	st = h.Stats()
	st.Add(b.Stats())
	st.Latency = [NumLatencyBuckets]uint64{}
	return st, len(out), sum
}

// TestOpWorkCountersPinned pins, exactly, the work one handle's fixed
// operation sequences do at three geometries — a narrow window that moves
// often, and the paper's operating point for one and for four threads:
// every OpStats counter (the wall-clock latency histogram aside), plus the
// mixed sequence's drained count and sum. Single-handle sequences are
// deterministic — the handle RNGs are seeded from the structure, the
// sequences from fixed seeds — so these values do not depend on the host,
// and a change to the descriptor representation or the op paths that
// keeps the search must keep all of them.
func TestOpWorkCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name             string
		cfg              Config
		singleton, mixed OpStats
		drained          int
		sum              uint64
	}{
		{
			"w16d4s4h2", Config{Width: 16, Depth: 4, Shift: 4, RandomHops: 2},
			OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 247926, RandomHops: 33868,
				WindowRaises: 683, WindowLowers: 683},
			OpStats{Pushes: 11990, Pops: 11106, EmptyPops: 66, Probes: 29342, RandomHops: 5397,
				WindowRaises: 153, WindowLowers: 139},
			884, 9281881,
		},
		{
			"default-p1", DefaultConfig(1),
			OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 165600, RandomHops: 2799,
				WindowRaises: 176, WindowLowers: 176},
			OpStats{Pushes: 11990, Pops: 11107, EmptyPops: 66, Probes: 10727, RandomHops: 642,
				WindowRaises: 27, WindowLowers: 24},
			883, 9322518,
		},
		{
			"default-p4", DefaultConfig(4),
			OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 170006, RandomHops: 2654,
				WindowRaises: 40, WindowLowers: 40},
			OpStats{Pushes: 11990, Pops: 11107, EmptyPops: 66, Probes: 12301, RandomHops: 633},
			883, 9417675,
		},
	} {
		t.Run(c.name+"/singleton", func(t *testing.T) {
			if got := singletonWork(c.cfg); got != c.singleton {
				t.Errorf("work changed:\n got %+v\nwant %+v", got, c.singleton)
			}
		})
		t.Run(c.name+"/mixed", func(t *testing.T) {
			st, n, sum := mixedWork(t, c.cfg)
			if st != c.mixed || n != c.drained || sum != c.sum {
				t.Errorf("work changed:\n got %+v drained %d sum %d\nwant %+v drained %d sum %d",
					st, n, sum, c.mixed, c.drained, c.sum)
			}
		})
	}
}
