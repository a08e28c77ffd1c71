// Command stackbench regenerates the paper's evaluation: Figure 1
// (throughput and accuracy vs relaxation bound), Figure 2 (throughput and
// accuracy vs concurrency) and the ablation studies from EXPERIMENTS.md.
//
// Usage:
//
//	stackbench -figure 1 [-threads 8] [-paper] [-quality]
//	stackbench -figure 2 [-paper] [-quality]
//	stackbench -ablation hop|depth|shift|width|asym [-threads 8]
//
// -paper restores the paper's full methodology (5 s per point, 5 repeats,
// prefill 32,768); the default is a CI-scale run (200 ms, 3 repeats) that
// preserves the ordering between algorithms.
//
// stackbench reproduces the paper's figures; it is not the repo's
// performance benchmark. That is perfbench (the nested module declared in
// BENCHMARK.json), whose fixed-duration, repeated runs carry their spread;
// EXPERIMENTS.md describes both.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/stats"
)

func main() {
	var (
		figure   = flag.Int("figure", 0, "figure to regenerate: 1 or 2")
		queue    = flag.Bool("queue", false, "run the 2D-Queue extension sweep instead of a figure")
		ablation = flag.String("ablation", "", "ablation to run: hop, depth, shift, width or asym")
		threads  = flag.Int("threads", 8, "thread count P for figure 1 and ablations")
		paper    = flag.Bool("paper", false, "use the paper's full methodology (5s x 5 repeats)")
		quality  = flag.Bool("quality", true, "also measure error distance per point")
		duration = flag.Duration("duration", 0, "override run duration per repeat")
		repeats  = flag.Int("repeats", 0, "override repeats per point")
		prefill  = flag.Int("prefill", 32768, "initial stack population")
		seed     = flag.Uint64("seed", 1, "base RNG seed")
	)
	flag.Parse()

	w := harness.Workload{
		Workers:   *threads,
		Duration:  200 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   *prefill,
		Seed:      *seed,
	}
	reps := 3
	if *paper {
		w.Duration = 5 * time.Second
		w.PinThreads = true
		reps = 5
	}
	if *duration > 0 {
		w.Duration = *duration
	}
	if *repeats > 0 {
		reps = *repeats
	}
	sc := harness.SweepConfig{
		Workload: w,
		Repeats:  reps,
		Quality:  *quality,
		Progress: os.Stderr,
	}

	var err error
	switch {
	case *queue:
		err = runQueueSweep(os.Stdout, sc)
	case *figure == 1:
		err = runFigure1(os.Stdout, sc)
	case *figure == 2:
		err = runFigure2(os.Stdout, sc)
	case *ablation != "":
		err = runAblation(os.Stdout, *ablation, sc)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
}

func runFigure1(out io.Writer, sc harness.SweepConfig) error {
	fmt.Fprintf(out, "# Figure 1 — throughput & accuracy vs relaxation bound k (P=%d)\n", sc.Workload.Workers)
	fmt.Fprintf(out, "# workload: %v per repeat, %d repeats, prefill %d, 50/50 push-pop\n\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	points, err := harness.Figure1Sweep(nil, sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, harness.RenderPoints(points, "k"))
	return nil
}

func runFigure2(out io.Writer, sc harness.SweepConfig) error {
	fmt.Fprintln(out, "# Figure 2 — throughput & accuracy vs concurrency (all algorithms)")
	fmt.Fprintf(out, "# workload: %v per repeat, %d repeats, prefill %d, 50/50 push-pop\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	fmt.Fprintln(out, "# note: the paper's intra-socket (P<=8) / inter-socket (P>8) split is a")
	fmt.Fprintln(out, "# hardware property; on this host the sweep shows scheduler timesharing")
	fmt.Fprintln(out, "# beyond the physical core count (see EXPERIMENTS.md).")
	fmt.Fprintln(out)
	points, err := harness.Figure2Sweep(nil, sc)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, harness.RenderPoints(points, "P"))
	return nil
}

// runQueueSweep regenerates the 2D-Queue extension experiment: throughput
// and FIFO error distance vs concurrency, against the strict Michael-Scott
// baseline (EXPERIMENTS.md §Extensions).
func runQueueSweep(out io.Writer, sc harness.SweepConfig) error {
	fmt.Fprintln(out, "# 2D-Queue extension — throughput & FIFO error vs concurrency")
	fmt.Fprintf(out, "# workload: %v per repeat, %d repeats, prefill %d, 50/50 enq-deq\n\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	tb := stats.NewTable("algorithm", "P", "k", "thr(ops/s)", "mean-err", "max-err")
	for _, p := range []int{1, 2, 4, 8, 16} {
		for _, alg := range []relax.Algorithm{relax.MSQueue, relax.TwoDQueue} {
			w := sc.Workload
			w.Workers = p
			f := func() (relax.Backend[uint64], error) { return relax.NewDefaultBackend[uint64](alg, p) }
			pt, err := harness.Measure(f, w, sc)
			if err != nil {
				return err
			}
			tb.AddRow(alg.String(), fmt.Sprintf("%d", p), bound(pt.K),
				fmt.Sprintf("%.0f", pt.Throughput.Mean),
				fmt.Sprintf("%.2f", pt.MeanError),
				fmt.Sprintf("%d", pt.MaxError))
			progress(sc, "queue %-10s P=%-3d thr=%s err=%.2f\n",
				alg, p, stats.HumanOps(pt.Throughput.Mean), pt.MeanError)
		}
	}
	fmt.Fprintln(out, tb.String())
	return nil
}

func runAblation(out io.Writer, name string, sc harness.SweepConfig) error {
	p := sc.Workload.Workers
	cases, err := harness.AblationCases(name, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# Ablation %q (P=%d, %v per repeat, %d repeats)\n\n", name, p, sc.Workload.Duration, sc.Repeats)
	tb := stats.NewTable("case", "k", "thr(ops/s)", "thr(min)", "thr(max)", "mean-err")
	for _, c := range cases {
		w := sc.Workload
		w.PushRatio = c.PushRatio
		pt, err := harness.Measure(c.Factory, w, sc)
		if err != nil {
			return err
		}
		tb.AddRow(c.Label, bound(pt.K),
			fmt.Sprintf("%.0f", pt.Throughput.Mean),
			fmt.Sprintf("%.0f", pt.Throughput.Min),
			fmt.Sprintf("%.0f", pt.Throughput.Max),
			fmt.Sprintf("%.2f", pt.MeanError))
		progress(sc, "ablation %-24s thr=%s\n", c.Label, stats.HumanOps(pt.Throughput.Mean))
	}
	fmt.Fprintln(out, tb.String())
	return nil
}

// bound renders a relaxation bound, "-" when unbounded.
func bound(k int64) string {
	if k < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", k)
}

func progress(sc harness.SweepConfig, format string, args ...any) {
	if sc.Progress != nil {
		fmt.Fprintf(sc.Progress, format, args...)
	}
}
