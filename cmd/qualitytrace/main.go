// Command qualitytrace runs one algorithm under the quality oracle and
// prints the full error-distance distribution (the paper reports the mean;
// this tool also shows the histogram and tail, which the brief announcement
// could not fit).
//
// Usage:
//
//	qualitytrace -alg 2d|k-segment|k-robin|random|random-c2|elimination|treiber \
//	             [-k 1024] [-threads 8] [-duration 500ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/stats"
	"stack2d/internal/twodqueue"
)

func main() {
	var (
		alg      = flag.String("alg", "2d", "algorithm: 2d, k-segment, k-robin, random, random-c2, elimination, treiber; or with -fifo: 2d-queue, ms-queue")
		fifo     = flag.Bool("fifo", false, "measure FIFO error of the queue extension instead")
		k        = flag.Int64("k", 1024, "relaxation budget for k-bounded algorithms")
		threads  = flag.Int("threads", 8, "thread count P")
		duration = flag.Duration("duration", 500*time.Millisecond, "run duration")
		prefill  = flag.Int("prefill", 32768, "initial stack population")
	)
	flag.Parse()

	w := harness.Workload{
		Workers:   *threads,
		Duration:  *duration,
		PushRatio: 0.5,
		Prefill:   *prefill,
		Seed:      1,
	}

	var f harness.Factory
	if *fifo {
		switch strings.ToLower(*alg) {
		case "2d", "2d-queue", "2dqueue":
			cfg := twodqueue.DefaultConfig(*threads)
			f = harness.NewTwoDQueueFactory(cfg)
		case "ms-queue", "msqueue", "strict":
			f = harness.NewMSQueueFactory()
		default:
			fmt.Fprintf(os.Stderr, "qualitytrace: unknown queue %q\n", *alg)
			os.Exit(2)
		}
	} else {
		algorithm, perr := parseAlgorithm(*alg)
		if perr != nil {
			fmt.Fprintln(os.Stderr, "qualitytrace:", perr)
			os.Exit(2)
		}
		if algorithm.KConfigurable() {
			f = harness.Figure1Factory(algorithm, *k, *threads)
		} else {
			f = harness.Figure2Factory(algorithm, *threads)
		}
	}
	res, err := harness.RunQuality(f, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qualitytrace:", err)
		os.Exit(1)
	}

	q := res.Quality
	fmt.Printf("# %s  (P=%d", f.Name, *threads)
	if f.K >= 0 {
		fmt.Printf(", k=%d", f.K)
	}
	fmt.Printf(", %v, prefill %d)\n\n", *duration, *prefill)
	fmt.Printf("operations:     %d (%.0f ops/s, oracle attached)\n", res.Ops, res.Throughput)
	fmt.Printf("measured pops:  %d\n", q.Count)
	fmt.Printf("mean error:     %.3f\n", q.Mean())
	fmt.Printf("max error:      %d\n", q.Max)
	fmt.Printf("empty returns:  %d\n\n", res.EmptyPops)

	fmt.Println("error-distance histogram (bucket = distance range):")
	tb := stats.NewTable("distance", "pops", "share")
	total := float64(q.Count)
	for i, n := range q.Hist {
		if n == 0 {
			continue
		}
		var label string
		switch i {
		case 0:
			label = "0 (exact LIFO)"
			if *fifo {
				label = "0 (exact FIFO)"
			}
		case 1:
			label = "1"
		default:
			label = fmt.Sprintf("%d..%d", 1<<(i-1), 1<<i-1)
		}
		tb.AddRow(label, fmt.Sprintf("%d", n), fmt.Sprintf("%5.1f%%", 100*float64(n)/total))
	}
	fmt.Println(tb.String())
}

func parseAlgorithm(s string) (relax.Algorithm, error) {
	switch strings.ToLower(s) {
	case "2d", "2d-stack", "2dstack":
		return relax.TwoDStack, nil
	case "k-segment", "ksegment":
		return relax.KSegment, nil
	case "k-robin", "krobin":
		return relax.KRobin, nil
	case "random":
		return relax.RandomStack, nil
	case "random-c2", "c2":
		return relax.RandomC2Stack, nil
	case "elimination":
		return relax.EliminationStack, nil
	case "treiber":
		return relax.TreiberStack, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}
