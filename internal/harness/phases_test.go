package harness

import (
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
)

func TestPhasedValidation(t *testing.T) {
	w := PhasedWorkload{MaxWorkers: 4, Prefill: 10, Seed: 1}
	ok := []Phase{{Name: "a", Duration: time.Millisecond, Workers: 2, PushRatio: 0.5}}
	if err := w.Validate(ok); err != nil {
		t.Fatalf("valid workload rejected: %v", err)
	}
	bad := [][]Phase{
		nil,
		{{Name: "d0", Duration: 0, Workers: 1}},
		{{Name: "w0", Duration: time.Millisecond, Workers: 0}},
		{{Name: "wBig", Duration: time.Millisecond, Workers: 5}},
		{{Name: "ratio", Duration: time.Millisecond, Workers: 1, PushRatio: 1.5}},
		{{Name: "think", Duration: time.Millisecond, Workers: 1, ThinkSpin: -1}},
	}
	for _, phases := range bad {
		if err := w.Validate(phases); err == nil {
			t.Fatalf("invalid phases %+v accepted", phases)
		}
	}
	if err := (PhasedWorkload{MaxWorkers: 0}).Validate(ok); err == nil {
		t.Fatal("MaxWorkers 0 accepted")
	}
}

func TestContentionPhasesShape(t *testing.T) {
	phases := ContentionPhases(8, 10*time.Millisecond)
	if len(phases) != 3 {
		t.Fatalf("got %d phases, want 3", len(phases))
	}
	if phases[0].Workers != 2 || phases[1].Workers != 8 || phases[2].Workers != 2 {
		t.Fatalf("worker shape %d/%d/%d, want 2/8/2", phases[0].Workers, phases[1].Workers, phases[2].Workers)
	}
	if phases[1].ThinkSpin != 0 || phases[0].ThinkSpin == 0 {
		t.Fatal("high phase should have no think time, low phases some")
	}
	if got := ContentionPhases(1, time.Millisecond)[0].Workers; got != 1 {
		t.Fatalf("single-worker low phase = %d workers", got)
	}
}

func TestRunPhasedCountsAndQuality(t *testing.T) {
	s := core.MustNew[uint64](core.Config{Width: 8, Depth: 16, Shift: 16, RandomHops: 2})
	phases := []Phase{
		{Name: "warm", Duration: 30 * time.Millisecond, Workers: 2, PushRatio: 0.6},
		{Name: "burst", Duration: 30 * time.Millisecond, Workers: 4, PushRatio: 0.5},
	}
	w := PhasedWorkload{MaxWorkers: 4, Prefill: 1024, Seed: 7, Quality: true}
	res, err := RunPhased(s, phases, w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("got %d phase results", len(res.Phases))
	}
	var sum uint64
	for i, pr := range res.Phases {
		if pr.Ops == 0 {
			t.Fatalf("phase %d recorded zero ops", i)
		}
		if pr.Ops != pr.Pushes+pr.Pops+pr.EmptyPops {
			t.Fatalf("phase %d ops %d != %d+%d+%d", i, pr.Ops, pr.Pushes, pr.Pops, pr.EmptyPops)
		}
		if pr.Throughput <= 0 {
			t.Fatalf("phase %d throughput %g", i, pr.Throughput)
		}
		sum += pr.Ops
	}
	if sum != res.TotalOps {
		t.Fatalf("TotalOps %d != phase sum %d", res.TotalOps, sum)
	}
	if res.Quality.Count == 0 {
		t.Fatal("quality run measured no pops")
	}
	// No hard distance bound here: a worker descheduled between a stack
	// operation and its oracle bookkeeping inflates the measured distance
	// by everything that ran in between, so concurrent oracle numbers are
	// statistics, not proofs. The deterministic bound check lives in
	// internal/relax (sequential executions, where Theorem 1 is exact).
}

// TestRunPhasedWithController is the in-tree miniature of cmd/adapttune:
// an adaptive stack under the canonical low→high→low shape must end with a
// consistent structure and a controller history whose every tick respects
// the ceiling.
func TestRunPhasedWithController(t *testing.T) {
	s := core.MustNew[uint64](core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2})
	ctrl, err := adapt.New(s, adapt.Policy{
		Goal:     adapt.MaxThroughput,
		KCeiling: 8192,
		Tick:     2 * time.Millisecond,
		MinWidth: 2, MaxWidth: 16,
		MinDepth: 8, MaxDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.Start()
	phases := ContentionPhases(8, 40*time.Millisecond)
	res, err := RunPhased(s, phases, PhasedWorkload{MaxWorkers: 8, Prefill: 4096, Seed: 3, Quality: true})
	ctrl.Stop()
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no operations recorded")
	}
	hist := ctrl.History()
	if len(hist) == 0 {
		t.Fatal("controller recorded no ticks during the run")
	}
	for _, rec := range hist {
		if rec.K > 8192 {
			t.Fatalf("tick %d K %d above ceiling", rec.Tick, rec.K)
		}
	}
	if int64(res.Quality.Max) > 8192 {
		t.Fatalf("realised distance %d above ceiling", res.Quality.Max)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The instrumented run: a one-phase RunPhased over a core.Stack, whose
// StatsSnapshot afterwards holds every worker's flushed work counters.
func instrumented(t *testing.T, cfg core.Config, p int, d time.Duration) (PhasedResult, core.OpStats) {
	t.Helper()
	s := core.MustNew[uint64](cfg)
	res, err := RunPhased(s, []Phase{{Name: "run", Duration: d, Workers: p, PushRatio: 0.5}},
		PhasedWorkload{MaxWorkers: p, Prefill: 1024, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return res, s.StatsSnapshot()
}

func TestRunInstrumentedCountsWork(t *testing.T) {
	res, st := instrumented(t, core.DefaultConfig(2), 2, 30*time.Millisecond)
	ph := res.Phases[0]
	if ph.Ops == 0 {
		t.Fatal("no operations")
	}
	if st.Probes < st.Ops() {
		t.Fatalf("Probes (%d) < ops (%d): every op validates at least one sub-stack",
			st.Probes, st.Ops())
	}
	// Every handle flushed on exit, so the snapshot is exact: the run's
	// counts plus the 1024 prefill pushes.
	if st.Pushes != ph.Pushes+1024 || st.Pops != ph.Pops || st.EmptyPops != ph.EmptyPops {
		t.Fatalf("stats %d/%d/%d pushes/pops/empty, run counted %d(+1024)/%d/%d",
			st.Pushes, st.Pops, st.EmptyPops, ph.Pushes, ph.Pops, ph.EmptyPops)
	}
	if ph.Throughput <= 0 {
		t.Fatal("zero throughput")
	}
}

func TestRunInstrumentedValidates(t *testing.T) {
	if _, err := core.New[uint64](core.Config{}); err == nil {
		t.Fatal("invalid config accepted")
	}
	s := core.MustNew[uint64](core.DefaultConfig(1))
	if _, err := RunPhased(s, []Phase{{Name: "run", Workers: 1}}, PhasedWorkload{MaxWorkers: 1}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestRunInstrumentedTightSearch(t *testing.T) {
	// At the default operating point with few workers, the empirical step
	// count must stay near 1 probe/op (the paper's tight-bound claim).
	_, st := instrumented(t, core.DefaultConfig(4), 4, 40*time.Millisecond)
	if ppo := st.ProbesPerOp(); ppo > 4 {
		t.Fatalf("ProbesPerOp = %.2f, want near 1 at the default config", ppo)
	}
}
