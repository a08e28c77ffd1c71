package harness

import (
	"fmt"
	"io"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/relax"
	"stack2d/internal/stats"
)

// Point is one (x, series) measurement of a figure: throughput averaged
// over repeats plus the quality metric from a dedicated quality run.
type Point struct {
	Algorithm relax.Algorithm
	X         int64 // k for Figure 1, P for Figure 2
	K         int64 // configured relaxation bound (-1 if unbounded)

	Throughput stats.Summary // ops/s over repeats
	MeanError  float64       // mean error distance (quality run)
	MaxError   int           // max observed error distance (quality run)
	EmptyPops  uint64        // from the throughput runs (summed)
}

// SweepConfig controls a figure regeneration.
type SweepConfig struct {
	Workload Workload // Workers is overridden per point in Figure 2
	Repeats  int      // the paper averages 5 repeats
	// Quality enables the oracle run per point (adds one extra run).
	Quality bool
	// Progress, when non-nil, receives one line per completed point.
	Progress io.Writer
}

// Measure runs sc.Repeats throughput runs of f under w, stepping the seed
// per repeat, plus one quality run when sc.Quality is set (its oracle
// follows f.Order). Every sweep's points come from here.
func Measure(f Factory, w Workload, sc SweepConfig) (Point, error) {
	pt := Point{K: f.K}
	xs := make([]float64, 0, sc.Repeats)
	for r := 0; r < sc.Repeats; r++ {
		wr := w
		wr.Seed = w.Seed + uint64(r)*7919
		res, err := Run(f, wr)
		if err != nil {
			return pt, err
		}
		xs = append(xs, res.Throughput)
		pt.EmptyPops += res.EmptyPops
	}
	pt.Throughput = stats.Summarize(xs)
	if sc.Quality {
		res, err := RunQuality(f, w)
		if err != nil {
			return pt, err
		}
		pt.MeanError = res.Quality.Mean()
		pt.MaxError = res.Quality.Max
	}
	return pt, nil
}

// Figure1Ks is the default relaxation sweep (the paper plots k on a log
// axis from single digits to tens of thousands).
func Figure1Ks() []int64 {
	return []int64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}
}

// Figure1Sweep regenerates the paper's Figure 1: throughput and accuracy of
// the k-bounded algorithms as the relaxation bound k increases, at fixed
// thread count sc.Workload.Workers.
func Figure1Sweep(ks []int64, sc SweepConfig) ([]Point, error) {
	if len(ks) == 0 {
		ks = Figure1Ks()
	}
	p := sc.Workload.Workers
	var out []Point
	for _, alg := range relax.Figure1Algorithms() {
		for _, k := range ks {
			f := Figure1Factory(alg, k, p)
			pt, err := Measure(f, sc.Workload, sc)
			if err != nil {
				return nil, fmt.Errorf("figure1 %v k=%d: %w", alg, k, err)
			}
			pt.Algorithm = alg
			pt.X = k
			out = append(out, pt)
			progress(sc, "figure1 %-10s k=%-6d thr=%s err=%.2f\n",
				alg, k, stats.HumanOps(pt.Throughput.Mean), pt.MeanError)
		}
	}
	return out, nil
}

// Figure2Ps is the paper's thread sweep: 1–8 intra-socket, 9–16 inter.
func Figure2Ps() []int {
	return []int{1, 2, 4, 6, 8, 10, 12, 14, 16}
}

// Figure2Sweep regenerates the paper's Figure 2: throughput and accuracy of
// all algorithms as concurrency increases.
func Figure2Sweep(ps []int, sc SweepConfig) ([]Point, error) {
	if len(ps) == 0 {
		ps = Figure2Ps()
	}
	var out []Point
	for _, alg := range relax.Figure2Algorithms() {
		for _, p := range ps {
			f := Figure2Factory(alg, p)
			w := sc.Workload
			w.Workers = p
			pt, err := Measure(f, w, sc)
			if err != nil {
				return nil, fmt.Errorf("figure2 %v p=%d: %w", alg, p, err)
			}
			pt.Algorithm = alg
			pt.X = int64(p)
			out = append(out, pt)
			progress(sc, "figure2 %-11s P=%-3d thr=%s err=%.2f\n",
				alg, p, stats.HumanOps(pt.Throughput.Mean), pt.MeanError)
		}
	}
	return out, nil
}

func progress(sc SweepConfig, format string, args ...any) {
	if sc.Progress != nil {
		fmt.Fprintf(sc.Progress, format, args...)
	}
}

// AblationCase is one configuration of an ablation sweep.
type AblationCase struct {
	Label     string
	Factory   Factory
	PushRatio float64
}

// AblationNames lists the ablations of EXPERIMENTS.md in order:
//   - hop (A1): the paper's hybrid hop policy, random probes then
//     round-robin, against the pure policies;
//   - depth (A2): the vertical dimension at fixed width, trading locality
//     against relaxation;
//   - shift (A3): the window step at fixed width and depth; smaller shifts
//     move the window more often but keep relaxation tighter;
//   - width (A4): the width multiplier, for the "width = 4P is the
//     optimum" claim;
//   - asym (A5): asymmetric push/pop mixes, where elimination's pairing
//     opportunity collapses while the 2D-Stack's window keeps absorbing
//     the imbalance.
func AblationNames() []string {
	return []string{"hop", "depth", "shift", "width", "asym"}
}

// AblationCases returns the cases of the named ablation at p threads, the
// one table both stackbench -ablation and BenchmarkAblation run. Every
// case but A5's runs the paper's 50/50 mix.
func AblationCases(name string, p int) ([]AblationCase, error) {
	base := core.DefaultConfig(p)
	twoD := func(label string, cfg core.Config) AblationCase {
		return AblationCase{Label: label, Factory: NewTwoDFactory(cfg), PushRatio: 0.5}
	}
	var cases []AblationCase
	switch name {
	case "hop":
		for _, c := range []struct {
			label string
			hops  int
		}{{"round-robin-only", 0}, {"hybrid-paper(2)", 2}, {"random-heavy", base.Width}} { // random-heavy: effectively random-only
			cfg := base
			cfg.RandomHops = c.hops
			cases = append(cases, twoD(c.label, cfg))
		}
	case "depth":
		for _, d := range []int64{1, 4, 16, 64, 256} {
			cases = append(cases, twoD(fmt.Sprintf("depth=%d", d), core.Config{Width: base.Width, Depth: d, Shift: d, RandomHops: 2}))
		}
	case "shift":
		for _, s := range []int64{1, 16, 32, 64} {
			cases = append(cases, twoD(fmt.Sprintf("shift=%d", s), core.Config{Width: base.Width, Depth: 64, Shift: s, RandomHops: 2}))
		}
	case "width":
		for _, m := range []int{1, 2, 4, 8} {
			cases = append(cases, twoD(fmt.Sprintf("width=%dP", m), core.Config{Width: m * p, Depth: 64, Shift: 64, RandomHops: 2}))
		}
	case "asym":
		for _, r := range []struct {
			label string
			push  float64
		}{{"push80", 0.8}, {"sym50", 0.5}, {"pop80", 0.2}} {
			cases = append(cases,
				AblationCase{Label: "2D-stack/" + r.label, Factory: NewTwoDFactory(base), PushRatio: r.push},
				AblationCase{Label: "elimination/" + r.label, Factory: NewEliminationFactory(elimination.DefaultConfig(p)), PushRatio: r.push},
				AblationCase{Label: "treiber/" + r.label, Factory: NewTreiberFactory(), PushRatio: r.push},
			)
		}
	default:
		return nil, fmt.Errorf("unknown ablation %q (want hop, depth, shift, width or asym)", name)
	}
	return cases, nil
}

// RenderPoints formats sweep results as the textual equivalent of a figure:
// one row per (algorithm, x), with throughput and error columns.
func RenderPoints(points []Point, xName string) string {
	tb := stats.NewTable("algorithm", xName, "k", "thr(ops/s)", "thr(min)", "thr(max)", "mean-err", "max-err", "empty-pops")
	for _, pt := range points {
		k := "-"
		if pt.K >= 0 {
			k = fmt.Sprintf("%d", pt.K)
		}
		tb.AddRow(
			pt.Algorithm.String(),
			fmt.Sprintf("%d", pt.X),
			k,
			fmt.Sprintf("%.0f", pt.Throughput.Mean),
			fmt.Sprintf("%.0f", pt.Throughput.Min),
			fmt.Sprintf("%.0f", pt.Throughput.Max),
			fmt.Sprintf("%.2f", pt.MeanError),
			fmt.Sprintf("%d", pt.MaxError),
			fmt.Sprintf("%d", pt.EmptyPops),
		)
	}
	return tb.String()
}
