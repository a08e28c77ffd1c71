// Command qualitytrace runs one algorithm under the quality oracle and
// prints the full error-distance distribution (the paper reports the mean;
// this tool also shows the histogram and tail, which the brief announcement
// could not fit).
//
// -alg takes any catalogue name relax.ParseAlgorithm accepts, and the
// structure is relax.NewBackendForK's for -alg, -k and -threads; the
// oracle follows its order. -fifo requires a queue, and under it "2d"
// names the 2D-Queue.
//
// Usage:
//
//	qualitytrace -alg 2d|k-segment|k-robin|random|random-c2|elimination|treiber|... \
//	             [-k 1024] [-threads 8] [-duration 500ms]
//	qualitytrace -fifo -alg 2d|ms-queue [-k 1024] [-threads 8] [-duration 500ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/stats"
)

func main() {
	var (
		alg      = flag.String("alg", "2d", "algorithm, any catalogue name: 2d, k-segment, k-robin, random, random-c2, elimination, treiber, ...; with -fifo: 2d (the 2D-Queue), ms-queue")
		fifo     = flag.Bool("fifo", false, "measure FIFO error of the queue extension instead")
		k        = flag.Int64("k", 1024, "relaxation budget for k-bounded algorithms (the 2D-Queue too)")
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

	b, err := backend(*alg, *fifo, *k, *threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qualitytrace:", err)
		os.Exit(2)
	}
	res, err := harness.RunQuality(func() (relax.Backend[uint64], error) { return b, nil }, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qualitytrace:", err)
		os.Exit(1)
	}

	q := res.Quality
	fmt.Printf("# %s  (P=%d", b.Algorithm(), *threads)
	if b.KBound() >= 0 {
		fmt.Printf(", k=%d", b.KBound())
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
			if b.Algorithm().Ordering() == relax.OrderFIFO {
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

// backend builds the structure to measure: relax.NewBackendForK's for the
// named algorithm, so k sizes every k-configurable one, the 2D-Queue
// included. Under -fifo the algorithm must be a queue, and "2d" names the
// 2D-Queue.
func backend(alg string, fifo bool, k int64, threads int) (relax.Backend[uint64], error) {
	a, err := relax.ParseAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	if fifo && a == relax.TwoDStack {
		a = relax.TwoDQueue
	}
	if fifo && a.Ordering() != relax.OrderFIFO {
		return nil, fmt.Errorf("%v is not a queue", a)
	}
	return relax.NewBackendForK[uint64](a, k, threads)
}
