package twodqueue

import (
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/xrand"
)

// singletonWork is core's singletonWork on the queue: eight stretches of
// 20 000 operations on one handle, enqueue share alternating 65% and 35%,
// so both windows climb; it returns the handle's counters without the
// wall-clock latency histogram.
func singletonWork(cfg Config) core.OpStats {
	q := MustNew[uint64](cfg)
	h := q.NewHandle()
	rng := xrand.New(1)
	var v uint64
	for stretch := 0; stretch < 8; stretch++ {
		pushPct := 65 - 30*(stretch%2)
		for i := 0; i < 20000; i++ {
			if rng.Intn(100) < pushPct {
				h.Enqueue(v)
				v++
			} else {
				h.Dequeue()
			}
		}
	}
	st := h.Stats()
	st.Latency = [core.NumLatencyBuckets]uint64{}
	return st
}

// mixedWork is core's mixedWork on the queue: singleton enqueues and
// dequeues, EnqueueBatch and DequeueBatch of 1–12 values, an op-buffered
// handle (cap 8, disarmed at the end so its pending enqueues publish and
// its prefetch returns), a width halving while populated, more singleton
// traffic on the narrowed window, and a Drain. The queue has no TryPop, so
// the stack sequence's TryPop tenth is a Dequeue. It returns the two
// handles' summed counters (latency cleared) and the drained count and
// sum; it fails t if any value was lost or duplicated.
func mixedWork(t *testing.T, cfg Config) (st core.OpStats, drained int, sum uint64) {
	t.Helper()
	q := MustNew[uint64](cfg)
	h := q.NewHandle()
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
			h.Enqueue(v)
			pushedSum += v
			v++
		case r < 5:
			batch = batch[:0]
			for n := 1 + rng.Intn(12); n > 0; n-- {
				batch = append(batch, v)
				pushedSum += v
				v++
			}
			h.EnqueueBatch(batch)
		case r < 8:
			take(h.Dequeue())
		default:
			for _, x := range h.DequeueBatch(1 + rng.Intn(12)) {
				poppedSum += x
			}
		}
	}
	b := q.NewHandle()
	b.SetOpBuffer(8)
	for i := 0; i < 6000; i++ {
		if rng.Intn(100) < 55 {
			b.BufferedEnqueue(v)
			pushedSum += v
			v++
		} else {
			take(b.BufferedDequeue())
		}
	}
	b.SetOpBuffer(0)
	if err := q.SetWidth(cfg.Width / 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if rng.Intn(100) < 50 {
			h.Enqueue(v)
			pushedSum += v
			v++
		} else {
			take(h.Dequeue())
		}
	}
	out := q.Drain()
	for _, x := range out {
		sum += x
	}
	if pushedSum-poppedSum != sum {
		t.Fatalf("drained sum %d, want %d (enqueued %d - dequeued %d)", sum, pushedSum-poppedSum, pushedSum, poppedSum)
	}
	st = h.Stats()
	st.Add(b.Stats())
	st.Latency = [core.NumLatencyBuckets]uint64{}
	return st, len(out), sum
}

// TestOpWorkCountersPinned pins, exactly, the work the queue's fixed
// single-handle sequences do at core's three pinned geometries: every
// OpStats counter (the wall-clock latency histogram aside), plus the mixed
// sequence's drained count and sum. The handle RNGs are seeded from the
// structure and the sequences from fixed seeds, so the values do not
// depend on the host, and a change to the op paths that keeps the window
// search must keep all of them.
func TestOpWorkCountersPinned(t *testing.T) {
	for _, c := range []struct {
		name             string
		cfg              Config
		singleton, mixed core.OpStats
		drained          int
		sum              uint64
	}{
		{
			"w16d4s4h2", Config{Width: 16, Depth: 4, Shift: 4, RandomHops: 2},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 318605, RandomHops: 61686,
				WindowRaises: 1247, WindowLowers: 1247},
			core.OpStats{Pushes: 14206, Pops: 13323, EmptyPops: 79, Probes: 39736, RandomHops: 8104,
				WindowRaises: 245, WindowLowers: 231},
			883, 12152528,
		},
		{
			"default-p1", DefaultConfig(1),
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 169014, RandomHops: 4643,
				WindowRaises: 311, WindowLowers: 311},
			core.OpStats{Pushes: 14206, Pops: 13323, EmptyPops: 79, Probes: 11952, RandomHops: 952,
				WindowRaises: 60, WindowLowers: 57},
			883, 12150429,
		},
		{
			"default-p4", DefaultConfig(4),
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 174746, RandomHops: 4434,
				WindowRaises: 77, WindowLowers: 77},
			core.OpStats{Pushes: 14206, Pops: 13323, EmptyPops: 79, Probes: 14166, RandomHops: 975,
				WindowRaises: 15, WindowLowers: 14},
			883, 12089543,
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
