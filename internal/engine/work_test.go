package engine

import (
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/relax"
	"stack2d/internal/xrand"
)

// singletonWork drives core's singleton work sequence (xrand.New(1), eight
// stretches of 20 000 operations, the push share alternating 65% and 35%)
// through one handle of b — the relax adapter's own, or, for the
// "switcher" layer, one of a switcher fronting b that never swaps — and
// returns that layer's StatsSnapshot after the handle's Flush, without the
// wall-clock latency histogram.
func singletonWork(t *testing.T, b relax.Backend[uint64], layer string) core.OpStats {
	t.Helper()
	src := b
	if layer == "switcher" {
		sw, err := New(b)
		if err != nil {
			t.Fatal(err)
		}
		src = sw
	}
	h := src.NewHandle()
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
	h.Flush()
	st := src.StatsSnapshot()
	st.Latency = [core.NumLatencyBuckets]uint64{}
	return st
}

// TestOpWorkCountersPinned pins, exactly, the work core's singleton
// sequence does through the relax adapter rung and through the engine
// switcher rung above it. Neither rung may add work to the structure's
// own: on a 2D backend every counter equals core's TestOpWorkCountersPinned
// singleton value at the same geometry, and the strict baselines count
// only their outcomes (plus, for elimination, the one collision-slot
// visit each empty pop makes). Like core's pins, the values do not depend
// on the host.
func TestOpWorkCountersPinned(t *testing.T) {
	strict := core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290}
	elim := strict
	elim.Probes = 290
	for _, c := range []struct {
		name  string
		build func() (relax.Backend[uint64], error)
		want  core.OpStats
	}{
		{
			"2D/w16d4s4h2",
			func() (relax.Backend[uint64], error) {
				return relax.NewTwoDBackend[uint64](core.Config{Width: 16, Depth: 4, Shift: 4, RandomHops: 2})
			},
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 247926, RandomHops: 33868,
				WindowRaises: 683, WindowLowers: 683},
		},
		{
			"2D/default-p1",
			func() (relax.Backend[uint64], error) { return relax.NewTwoDBackend[uint64](core.DefaultConfig(1)) },
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 165600, RandomHops: 2799,
				WindowRaises: 176, WindowLowers: 176},
		},
		{
			"2D/default-p4",
			func() (relax.Backend[uint64], error) { return relax.NewTwoDBackend[uint64](core.DefaultConfig(4)) },
			core.OpStats{Pushes: 79855, Pops: 79855, EmptyPops: 290, Probes: 170006, RandomHops: 2654,
				WindowRaises: 40, WindowLowers: 40},
		},
		{
			"treiber",
			func() (relax.Backend[uint64], error) { return relax.NewTreiberBackend[uint64](), nil },
			strict,
		},
		{
			"elimination/p1",
			func() (relax.Backend[uint64], error) {
				return relax.NewEliminationBackend[uint64](elimination.DefaultConfig(1))
			},
			elim,
		},
	} {
		for _, layer := range []string{"relax", "switcher"} {
			t.Run(c.name+"/"+layer, func(t *testing.T) {
				b, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				if got := singletonWork(t, b, layer); got != c.want {
					t.Errorf("work changed:\n got %+v\nwant %+v", got, c.want)
				}
			})
		}
	}
}
