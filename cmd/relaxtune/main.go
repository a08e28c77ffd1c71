// Command relaxtune explores the 2D-Stack parameter space: it sweeps width,
// depth and shift, printing for each configuration the Theorem 1 bound, the
// measured throughput and the measured error distance, so an operator can
// pick the operating point for a workload.
//
// Usage:
//
//	relaxtune [-threads 8] [-duration 200ms] [-widths 1,2,4,8] [-depths 1,16,64] [-shifts 0]
//
// -widths are multipliers of P; -shifts of 0 means "shift = depth".
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/harness"
	"stack2d/internal/stats"
)

func main() {
	var (
		threads  = flag.Int("threads", 8, "thread count P")
		duration = flag.Duration("duration", 200*time.Millisecond, "run duration per configuration")
		prefill  = flag.Int("prefill", 32768, "initial stack population")
		widths   = flag.String("widths", "1,2,4,8", "width multipliers of P to sweep")
		depths   = flag.String("depths", "1,16,64,256", "window depths to sweep")
		shifts   = flag.String("shifts", "0", "window shifts to sweep (0 = shift=depth)")
		quality  = flag.Bool("quality", true, "measure error distance per configuration")
	)
	flag.Parse()

	ws, err := parseInts(*widths)
	if err != nil {
		fatal("bad -widths: %v", err)
	}
	ds, err := parseInts(*depths)
	if err != nil {
		fatal("bad -depths: %v", err)
	}
	ss, err := parseInts(*shifts)
	if err != nil {
		fatal("bad -shifts: %v", err)
	}

	phases := []harness.Phase{{Name: "sweep", Duration: *duration, Workers: *threads, PushRatio: 0.5}}
	w := harness.PhasedWorkload{MaxWorkers: *threads, Prefill: *prefill, Seed: 1}
	qw := w
	qw.Quality = true

	fmt.Printf("# 2D-Stack parameter sweep (P=%d, %v per point, prefill %d)\n\n", *threads, *duration, *prefill)
	tb := stats.NewTable("width", "depth", "shift", "k", "thr(ops/s)", "probes/op", "cas-fail%", "win-moves", "mean-err", "max-err")
	for _, wm := range ws {
		for _, d := range ds {
			for _, sh := range ss {
				shift := int64(sh)
				if shift == 0 || shift > int64(d) {
					shift = int64(d)
				}
				cfg := core.Config{
					Width:      wm * *threads,
					Depth:      int64(d),
					Shift:      shift,
					RandomHops: 2,
				}
				if err := cfg.Validate(); err != nil {
					fatal("invalid configuration %+v: %v", cfg, err)
				}
				// Every worker flushes its handle's counters on exit, so the
				// stack's snapshot holds the run's exact work (prefill included).
				s := core.MustNew[uint64](cfg)
				res, err := harness.RunPhased(s, phases, w)
				if err != nil {
					fatal("run failed: %v", err)
				}
				st := s.StatsSnapshot()
				thr := res.Phases[0].Throughput
				meanErr, maxErr := 0.0, 0
				if *quality {
					qres, err := harness.RunPhased(core.MustNew[uint64](cfg), phases, qw)
					if err != nil {
						fatal("quality run failed: %v", err)
					}
					meanErr = qres.Quality.Mean()
					maxErr = qres.Quality.Max
				}
				casFailPct := 0.0
				if st.Probes > 0 {
					casFailPct = 100 * float64(st.CASFailures) / float64(st.Ops())
				}
				tb.AddRow(
					fmt.Sprintf("%d (%dP)", cfg.Width, wm),
					fmt.Sprintf("%d", cfg.Depth),
					fmt.Sprintf("%d", cfg.Shift),
					fmt.Sprintf("%d", cfg.K()),
					fmt.Sprintf("%.0f", thr),
					fmt.Sprintf("%.2f", st.ProbesPerOp()),
					fmt.Sprintf("%.2f", casFailPct),
					fmt.Sprintf("%d", st.WindowRaises+st.WindowLowers),
					fmt.Sprintf("%.2f", meanErr),
					fmt.Sprintf("%d", maxErr),
				)
				fmt.Fprintf(os.Stderr, "w=%-4d d=%-4d s=%-4d thr=%s\n",
					cfg.Width, cfg.Depth, cfg.Shift, stats.HumanOps(thr))
			}
		}
	}
	fmt.Println(tb.String())
}

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", p)
		}
		if n < 0 {
			return nil, fmt.Errorf("%d is negative", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "relaxtune: "+format+"\n", args...)
	os.Exit(1)
}
