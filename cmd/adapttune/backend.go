package main

import (
	"fmt"
	"os"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/engine"
	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/seqspec"
	"stack2d/internal/stats"
)

// backendDemo is the -backend auto experiment: where the geometry
// controller retunes one structure's window, the backend selector decides
// which structure should be live at all. A 2D backend built from the
// start geometry fronts an elimination stack and a strict Treiber stack
// behind the epoch-pinned switcher (internal/engine). Halfway through the
// phased run the semantics budget is collapsed to zero — the shape of an
// application whose tolerance for reordering disappears mid-run — and from
// then on a Selector samples the live counters every -tick. The collapse
// must deterministically evict the relaxed backend for a strict one,
// whatever the load looks like: a swap with reason "k-budget-zero" in the
// history, the selector time series and the -csv rows. That reason string
// is what CI greps for.
//
// The run records its full interval history and replays it through the
// k-distance checker with exactly the documented budget (DESIGN.md §9):
// the largest bound of any backend that was active, plus the switcher's
// tracked swap displacement, plus the 2D backend's shrink displacement.
// Any miss — no budget swap, a relaxed backend still live, the checker
// failing — returns false (exit status 1).
func backendDemo(start core.Config, threads int, phaseDur, tick time.Duration,
	prefill int, seed uint64, sink *csvSink, plane *obsPlane) bool {

	twod, err := relax.NewTwoDBackend[uint64](start)
	if err != nil {
		fatal("backend demo: %v", err)
	}
	sw, err := engine.New[uint64](twod)
	if err != nil {
		fatal("backend demo: %v", err)
	}
	elim, err := relax.NewEliminationBackend[uint64](elimination.DefaultConfig(threads))
	if err != nil {
		fatal("backend demo: %v", err)
	}
	if err := sw.Register(elim); err != nil {
		fatal("backend demo: %v", err)
	}
	if err := sw.Register(relax.NewTreiberBackend[uint64]()); err != nil {
		fatal("backend demo: %v", err)
	}
	plane.instrumentSwitcher(sw)

	sel, err := adapt.NewSelector(sw, adapt.SelectorPolicy{Tick: tick})
	if err != nil {
		fatal("backend selector: %v", err)
	}

	phases := harness.ContentionPhases(threads, phaseDur)
	var total time.Duration
	for _, ph := range phases {
		total += ph.Duration
	}
	fmt.Printf("\n## native backend run (P=%d, %v/phase, backends %v, budget collapses to 0 at %v)\n",
		threads, phaseDur, sw.Backends(), total/2)

	// The mid-run tolerance collapse: after half the run the application
	// can no longer absorb any reordering. The selector takes no decision
	// before it — sampling from the start, a symmetric storm would swap to
	// elimination, whose bound is already 0, and leave the collapse nothing
	// to evict — so the collapse steps the selector once itself, while the
	// 2D backend is live, and only then starts it for the rest of the run.
	begin := time.Now()
	collapsed := make(chan struct{})
	time.AfterFunc(total/2, func() {
		defer close(collapsed)
		sel.SetKBudget(0)
		sel.Step(time.Since(begin))
		sel.Start()
	})

	res, runErr := harness.RunPhasedBackend(sw, phases, harness.PhasedWorkload{
		MaxWorkers: threads, Prefill: prefill, Seed: seed, Record: true,
	})
	<-collapsed
	sel.Stop()
	if runErr != nil {
		fatal("backend run failed: %v", runErr)
	}

	ts := stats.NewTable("tick", "ops", "thr(ops/s)", "cas/op", "push-frac", "action", "reason", "backend", "k")
	for _, rec := range sel.History() {
		ts.AddRow(
			fmt.Sprintf("%d", rec.Tick),
			fmt.Sprintf("%d", rec.Ops),
			fmt.Sprintf("%.0f", rec.Throughput),
			fmt.Sprintf("%.3f", rec.CASPerOp),
			fmt.Sprintf("%.2f", rec.PushFrac),
			rec.Action,
			rec.Reason,
			rec.Backend,
			fmt.Sprintf("%d", rec.K),
		)
		sink.recordSelector("native-backend", rec)
	}
	ts.Render(os.Stdout)

	swaps := sw.Swaps()
	fmt.Println()
	st := stats.NewTable("swap", "from", "to", "reason", "migrated", "disp")
	for _, rec := range swaps {
		st.AddRow(
			fmt.Sprintf("%d", rec.Seq),
			rec.From, rec.To, rec.Reason,
			fmt.Sprintf("%d", rec.Migrated),
			fmt.Sprintf("%d", rec.Displacement),
		)
	}
	st.Render(os.Stdout)

	ok := true
	fmt.Println()

	// Gate 1: the budget collapse evicted the relaxed backend, for the
	// recorded reason, and a strict backend (bound 0) finished the run.
	sawBudgetSwap := false
	for _, rec := range swaps {
		if rec.Reason == adapt.ReasonKBudgetZero {
			sawBudgetSwap = true
		}
	}
	if !sawBudgetSwap {
		fmt.Printf("FAIL: the budget collapse produced no %q swap (swaps: %d)\n",
			adapt.ReasonKBudgetZero, len(swaps))
		ok = false
	}
	finalBackend := sw.ActiveBackend()
	if k, known := sw.BackendKBound(finalBackend); !known || k != 0 {
		fmt.Printf("FAIL: backend %q (bound %d) still live after the budget collapsed to 0\n", finalBackend, k)
		ok = false
	} else {
		fmt.Printf("budget collapse honoured: %q (bound 0) live after %d swap(s)\n", finalBackend, len(swaps))
	}

	// Gate 2: the whole recorded run — spanning every backend that was
	// live and every migration — verifies under the documented budget.
	allowance := sw.SwapDisplacementBound()
	if sr, hasShrink := any(twod).(interface{ ShrinkDisplacementBound() int64 }); hasShrink {
		allowance += sr.ShrinkDisplacementBound()
	}
	checker := seqspec.KStackChecker{K: sw.KBound(), Allowance: allowance}
	rep, err := checker.Check(res.History)
	if err != nil {
		fmt.Printf("FAIL: k-distance check across swaps (k=%d allowance=%d): %v\n",
			checker.K, checker.Allowance, err)
		ok = false
	} else {
		fmt.Printf("k-distance check across swaps: %d ops, %d pops, maxDist=%d maxStrain=%d <= k=%d + allowance=%d: OK\n",
			len(res.History), rep.Pops, rep.MaxDistance, rep.MaxStrain, checker.K, checker.Allowance)
	}
	return ok
}
