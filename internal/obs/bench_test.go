package obs

import (
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/xrand"
)

// instrument attaches the whole observability plane to s — a structural
// tracer on a ring, a controller ticking every tick with a tick tracer on
// the same ring, and the metrics bridge for the structure and the ring —
// and returns the controller, not yet started, and the registry.
func instrument(tb testing.TB, s *core.Stack[uint64], tick time.Duration) (*adapt.Controller, *Registry) {
	tb.Helper()
	ring := NewRing(1024)
	s.SetObserver(StructTracer{Structure: "stack", Ring: ring})
	ctrl, err := adapt.New(s, adapt.Policy{Tick: tick})
	if err != nil {
		tb.Fatal(err)
	}
	ctrl.SetObserver(TickTracer{Structure: "stack", Ring: ring})
	reg := NewRegistry()
	RegisterStructure(reg, "stack", s, nil)
	RegisterRing(reg, ring)
	return ctrl, reg
}

// TestObservabilityPlaneAddsNoWork is the exact, host-independent form of
// BenchmarkObserverOverhead's claim (DESIGN.md §8): no hook is read per
// operation, so one handle's fixed operation sequence does the same work
// on a bare stack and on one with the whole plane attached and scraped
// mid-run — every OpStats counter equal, only the wall-clock latency
// histogram may differ — and the instrumented stack's operations allocate
// exactly what core's TestOpAllocsPinned pins. The controller runs
// throughout, but with a tick longer than the test: a tick may
// legitimately reconfigure the window, which would change the work.
func TestObservabilityPlaneAddsNoWork(t *testing.T) {
	cfg := core.Config{Width: 16, Depth: 4, Shift: 4, RandomHops: 2}
	inst := core.MustNew[uint64](cfg)
	ctrl, reg := instrument(t, inst, time.Hour)
	ctrl.Start()
	defer ctrl.Stop()

	// Push-biased then pop-biased stretches, so the window climbs and
	// falls; scrape is called between stretches.
	work := func(s *core.Stack[uint64], scrape func()) core.OpStats {
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
			scrape()
		}
		h.FlushStats()
		st := s.StatsSnapshot()
		st.Latency = [core.NumLatencyBuckets]uint64{}
		return st
	}
	want := work(core.MustNew[uint64](cfg), func() {})
	got := work(inst, func() { reg.Render() })
	if got != want {
		t.Errorf("instrumented stack did different work:\n got %+v\nwant %+v", got, want)
	}
	if want.WindowRaises == 0 || want.WindowLowers == 0 {
		t.Errorf("sequence never moved the window both ways (%+v); it must exercise the slow paths", want)
	}
	if n := len(ctrl.History()); n != 0 {
		t.Fatalf("controller ticked %d times during the sequence", n)
	}

	h := inst.NewHandle()
	var i uint64
	if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++ }); got != 1 {
		t.Errorf("instrumented Push allocates %v per op, pinned at 1 (descriptor with its node)", got)
	}
	if got := testing.AllocsPerRun(5000, func() { h.Pop() }); got != 0 {
		t.Errorf("instrumented Pop allocates %v per op, pinned at 0", got)
	}
}

// benchMixedOps drives a 50/50 push/pop mix from every benchmark worker,
// each with its own handle — the high-contention shape of the harness's
// "high" phase.
func benchMixedOps(b *testing.B, s *core.Stack[uint64]) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		h := s.NewHandle()
		var i uint64
		for pb.Next() {
			if i&1 == 0 {
				h.Push(i)
			} else {
				h.Pop()
			}
			i++
		}
	})
}

// BenchmarkObserverOverhead measures the disabled-path claim of DESIGN.md
// §8 in wall-clock time: fully instrumenting a structure (structural
// observer + live controller with a tick tracer + a registered metrics
// bridge) must not change the operation hot path, because no hook is read
// per operation. Compare the off/on ns/op in one run;
// TestObservabilityPlaneAddsNoWork pins the same claim exactly, as equal
// work counters and allocations.
func BenchmarkObserverOverhead(b *testing.B) {
	cfg := core.Config{Width: 16, Depth: 64, Shift: 64, RandomHops: 2}
	b.Run("off", func(b *testing.B) {
		benchMixedOps(b, core.MustNew[uint64](cfg))
	})
	b.Run("on", func(b *testing.B) {
		s := core.MustNew[uint64](cfg)
		ctrl, _ := instrument(b, s, 10*time.Millisecond)
		ctrl.Start()
		defer ctrl.Stop()
		benchMixedOps(b, s)
	})
}
