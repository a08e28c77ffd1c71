package stack2d

import (
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/xrand"
)

// singletonWork drives core's singleton work sequence (xrand.New(1), eight
// stretches of 20 000 operations, the push share alternating 65% and 35%)
// through one public handle's push and pop, then flushes the handle's
// counters and returns the structure's StatsSnapshot without the
// wall-clock latency histogram.
func singletonWork(push func(uint64), pop func() (uint64, bool), flush func(), snapshot func() core.OpStats) core.OpStats {
	rng := xrand.New(1)
	var v uint64
	for stretch := 0; stretch < 8; stretch++ {
		pushPct := 65 - 30*(stretch%2)
		for i := 0; i < 20000; i++ {
			if rng.Intn(100) < pushPct {
				push(v)
				v++
			} else {
				pop()
			}
		}
	}
	flush()
	st := snapshot()
	st.Latency = [core.NumLatencyBuckets]uint64{}
	return st
}

// TestOpWorkCountersPinned pins, exactly, the work core's singleton
// sequence does through the public wrapper rung: a Stack Handle, a
// QueueHandle and an EngineHandle, built by the public options at core's
// three pinned geometries. The wrappers may add no work to the structure
// beneath them, so the stack and the engine must read core's
// TestOpWorkCountersPinned singleton values and the queue twodqueue's.
// Like those pins, the values do not depend on the host.
func TestOpWorkCountersPinned(t *testing.T) {
	check := func(t *testing.T, got, want core.OpStats) {
		t.Helper()
		if got != want {
			t.Errorf("work changed:\n got %+v\nwant %+v", got, want)
		}
	}
	for _, c := range []struct {
		name         string
		opts         []Option
		stack, queue core.OpStats
	}{
		{
			"w16d4s4h2", []Option{WithWidth(16), WithDepth(4), WithShift(4), WithRandomHops(2)},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 247926, RandomHops: 33868,
				WindowRaises: 683, WindowLowers: 683},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 318605, RandomHops: 61686,
				WindowRaises: 1247, WindowLowers: 1247},
		},
		{
			"default-p1", []Option{WithExpectedThreads(1)},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 165600, RandomHops: 2799,
				WindowRaises: 176, WindowLowers: 176},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 169014, RandomHops: 4643,
				WindowRaises: 311, WindowLowers: 311},
		},
		{
			"default-p4", []Option{WithExpectedThreads(4)},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 170006, RandomHops: 2654,
				WindowRaises: 40, WindowLowers: 40},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 174746, RandomHops: 4434,
				WindowRaises: 77, WindowLowers: 77},
		},
	} {
		t.Run(c.name+"/stack", func(t *testing.T) {
			s := New[uint64](c.opts...)
			h := s.NewHandle()
			check(t, singletonWork(h.Push, h.Pop, h.h.FlushStats, s.inner.StatsSnapshot), c.stack)
		})
		t.Run(c.name+"/queue", func(t *testing.T) {
			q := NewQueue[uint64](c.opts...)
			h := q.NewHandle()
			check(t, singletonWork(h.Enqueue, h.Dequeue, h.h.FlushStats, q.inner.StatsSnapshot), c.queue)
		})
		t.Run(c.name+"/engine", func(t *testing.T) {
			e := NewEngine[uint64](c.opts...)
			defer e.Close()
			h := e.NewHandle()
			check(t, singletonWork(h.Push, h.Pop, h.h.Flush, e.sw.StatsSnapshot), c.stack)
		})
	}
}
