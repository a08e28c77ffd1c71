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
	"os"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/harness"
	"stack2d/internal/stats"
	"stack2d/internal/twodqueue"
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
		err = runQueueSweep(sc)
	case *figure == 1:
		err = runFigure1(sc)
	case *figure == 2:
		err = runFigure2(sc)
	case *ablation != "":
		err = runAblation(*ablation, sc)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackbench:", err)
		os.Exit(1)
	}
}

func runFigure1(sc harness.SweepConfig) error {
	fmt.Printf("# Figure 1 — throughput & accuracy vs relaxation bound k (P=%d)\n", sc.Workload.Workers)
	fmt.Printf("# workload: %v per repeat, %d repeats, prefill %d, 50/50 push-pop\n\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	points, err := harness.Figure1Sweep(nil, sc)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderPoints(points, "k"))
	return nil
}

func runFigure2(sc harness.SweepConfig) error {
	fmt.Println("# Figure 2 — throughput & accuracy vs concurrency (all algorithms)")
	fmt.Printf("# workload: %v per repeat, %d repeats, prefill %d, 50/50 push-pop\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	fmt.Println("# note: the paper's intra-socket (P<=8) / inter-socket (P>8) split is a")
	fmt.Println("# hardware property; on this host the sweep shows scheduler timesharing")
	fmt.Println("# beyond the physical core count (see EXPERIMENTS.md).")
	fmt.Println()
	points, err := harness.Figure2Sweep(nil, sc)
	if err != nil {
		return err
	}
	fmt.Println(harness.RenderPoints(points, "P"))
	return nil
}

// runQueueSweep regenerates the 2D-Queue extension experiment: throughput
// and FIFO error distance vs concurrency, against the strict Michael-Scott
// baseline (EXPERIMENTS.md §Extensions).
func runQueueSweep(sc harness.SweepConfig) error {
	fmt.Println("# 2D-Queue extension — throughput & FIFO error vs concurrency")
	fmt.Printf("# workload: %v per repeat, %d repeats, prefill %d, 50/50 enq-deq\n\n",
		sc.Workload.Duration, sc.Repeats, sc.Workload.Prefill)
	tb := stats.NewTable("algorithm", "P", "k", "thr(ops/s)", "mean-err", "max-err")
	for _, p := range []int{1, 2, 4, 8, 16} {
		factories := []harness.Factory{
			harness.NewMSQueueFactory(),
			harness.NewTwoDQueueFactory(twodqueue.DefaultConfig(p)),
		}
		for _, f := range factories {
			w := sc.Workload
			w.Workers = p
			xs := make([]float64, 0, sc.Repeats)
			for r := 0; r < sc.Repeats; r++ {
				wr := w
				wr.Seed = w.Seed + uint64(r)*7919
				res, err := harness.Run(f, wr)
				if err != nil {
					return err
				}
				xs = append(xs, res.Throughput)
			}
			meanErr, maxErr := 0.0, 0
			if sc.Quality {
				res, err := harness.RunQueueQuality(f, w)
				if err != nil {
					return err
				}
				meanErr = res.Quality.Mean()
				maxErr = res.Quality.Max
			}
			sum := stats.Summarize(xs)
			k := "-"
			if f.K >= 0 {
				k = fmt.Sprintf("%d", f.K)
			}
			tb.AddRow(f.Name, fmt.Sprintf("%d", p), k,
				fmt.Sprintf("%.0f", sum.Mean),
				fmt.Sprintf("%.2f", meanErr),
				fmt.Sprintf("%d", maxErr))
			fmt.Fprintf(os.Stderr, "queue %-10s P=%-3d thr=%s err=%.2f\n",
				f.Name, p, stats.HumanOps(sum.Mean), meanErr)
		}
	}
	fmt.Println(tb.String())
	return nil
}

// ablationCase is one configuration of an ablation sweep.
type ablationCase struct {
	label string
	f     harness.Factory
	push  float64 // 0 = default 0.5
}

func runAblation(name string, sc harness.SweepConfig) error {
	p := sc.Workload.Workers
	base := core.DefaultConfig(p)
	var cases []ablationCase
	switch name {
	case "hop":
		for _, c := range []struct {
			label string
			hops  int
		}{{"round-robin-only", 0}, {"hybrid-paper(2)", 2}, {"random-heavy", base.Width}} {
			cfg := base
			cfg.RandomHops = c.hops
			cases = append(cases, ablationCase{label: c.label, f: harness.NewTwoDFactory(cfg)})
		}
	case "depth":
		for _, d := range []int64{1, 4, 16, 64, 256} {
			cfg := core.Config{Width: base.Width, Depth: d, Shift: d, RandomHops: 2}
			cases = append(cases, ablationCase{label: fmt.Sprintf("depth=%d", d), f: harness.NewTwoDFactory(cfg)})
		}
	case "shift":
		for _, s := range []int64{1, 16, 32, 64} {
			cfg := core.Config{Width: base.Width, Depth: 64, Shift: s, RandomHops: 2}
			cases = append(cases, ablationCase{label: fmt.Sprintf("shift=%d", s), f: harness.NewTwoDFactory(cfg)})
		}
	case "width":
		for _, m := range []int{1, 2, 4, 8} {
			cfg := core.Config{Width: m * p, Depth: 64, Shift: 64, RandomHops: 2}
			cases = append(cases, ablationCase{label: fmt.Sprintf("width=%dP", m), f: harness.NewTwoDFactory(cfg)})
		}
	case "asym":
		for _, r := range []struct {
			label string
			push  float64
		}{{"push80", 0.8}, {"sym50", 0.5}, {"pop80", 0.2}} {
			cases = append(cases,
				ablationCase{label: "2D-stack/" + r.label, f: harness.NewTwoDFactory(base), push: r.push},
				ablationCase{label: "elimination/" + r.label, f: harness.NewEliminationFactory(elimination.DefaultConfig(p)), push: r.push},
				ablationCase{label: "treiber/" + r.label, f: harness.NewTreiberFactory(), push: r.push},
			)
		}
	default:
		return fmt.Errorf("unknown ablation %q (want hop, depth, shift, width or asym)", name)
	}

	fmt.Printf("# Ablation %q (P=%d, %v per repeat, %d repeats)\n\n", name, p, sc.Workload.Duration, sc.Repeats)
	tb := stats.NewTable("case", "k", "thr(ops/s)", "thr(min)", "thr(max)", "mean-err")
	for _, c := range cases {
		w := sc.Workload
		if c.push != 0 {
			w.PushRatio = c.push
		}
		xs := make([]float64, 0, sc.Repeats)
		for r := 0; r < sc.Repeats; r++ {
			wr := w
			wr.Seed = w.Seed + uint64(r)*7919
			res, err := harness.Run(c.f, wr)
			if err != nil {
				return err
			}
			xs = append(xs, res.Throughput)
		}
		meanErr := 0.0
		if sc.Quality {
			res, err := harness.RunQuality(c.f, w)
			if err != nil {
				return err
			}
			meanErr = res.Quality.Mean()
		}
		sum := stats.Summarize(xs)
		k := "-"
		if c.f.K >= 0 {
			k = fmt.Sprintf("%d", c.f.K)
		}
		tb.AddRow(c.label, k,
			fmt.Sprintf("%.0f", sum.Mean),
			fmt.Sprintf("%.0f", sum.Min),
			fmt.Sprintf("%.0f", sum.Max),
			fmt.Sprintf("%.2f", meanErr))
		fmt.Fprintf(os.Stderr, "ablation %-24s thr=%s\n", c.label, stats.HumanOps(sum.Mean))
	}
	fmt.Println(tb.String())
	return nil
}
