// Command stackcheck runs the repository's correctness battery against a
// chosen algorithm outside the test harness — useful for soak testing on a
// target machine and for demonstrating the verification methodology:
//
//   - conservation: under a concurrent mixed workload, the multiset of
//     values recovered (pops + final drain) must equal the multiset pushed;
//   - k-bound: a concurrent run's interval history (every operation
//     stamped at invocation and response on one logical clock) must
//     respect the structure's k-out-of-order bound (its backend's KBound)
//     under the interval checker's measurement slack (seqspec.KStackChecker,
//     or seqspec.KFIFOChecker for the queues); it is skipped for the
//     designs with no deterministic bound;
//   - empty sanity: pops must never report empty while more than k items
//     are provably present.
//
// -alg takes any catalogue name relax.ParseAlgorithm accepts; the
// structure is relax.NewBackendForK's for -alg, -k and -threads.
//
// Usage:
//
//	stackcheck -alg 2d|k-segment|k-robin|random|random-c2|elimination|treiber|... \
//	           [-k 256] [-threads 8] [-ops 200000] [-rounds 3]
//
// Exit status 0 means every round passed.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"stack2d/internal/relax"
	"stack2d/internal/seqspec"
	"stack2d/internal/xrand"
)

func main() {
	var (
		alg     = flag.String("alg", "2d", "algorithm under test")
		k       = flag.Int64("k", 256, "relaxation budget for k-bounded algorithms")
		threads = flag.Int("threads", 8, "concurrent workers")
		ops     = flag.Int("ops", 200000, "operations per worker per round")
		rounds  = flag.Int("rounds", 3, "repetitions of the whole battery")
	)
	flag.Parse()

	algorithm, err := relax.ParseAlgorithm(*alg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stackcheck:", err)
		os.Exit(2)
	}
	fresh := func() relax.Backend[uint64] {
		b, err := relax.NewBackendForK[uint64](algorithm, *k, *threads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "stackcheck:", err)
			os.Exit(2)
		}
		return b
	}
	kBound := fresh().KBound()

	fmt.Printf("checking %s (k=%v) with %d workers x %d ops x %d rounds\n",
		algorithm, kBound, *threads, *ops, *rounds)

	for round := 1; round <= *rounds; round++ {
		if err := checkConservation(fresh(), *threads, *ops); err != nil {
			fmt.Fprintf(os.Stderr, "round %d: conservation FAILED: %v\n", round, err)
			os.Exit(1)
		}
		fmt.Printf("round %d: conservation ok\n", round)
		if kBound >= 0 {
			if err := checkKBound(fresh(), *threads, *ops/4); err != nil {
				fmt.Fprintf(os.Stderr, "round %d: k-bound FAILED: %v\n", round, err)
				os.Exit(1)
			}
			fmt.Printf("round %d: k-bound ok (k=%d)\n", round, kBound)
		} else {
			fmt.Printf("round %d: k-bound skipped (%s is unbounded)\n", round, algorithm)
		}
	}
	fmt.Println("PASS")
}

// checkConservation drives a concurrent mixed workload on b and verifies
// the multiset of recovered values equals the multiset pushed.
func checkConservation(b relax.Backend[uint64], workers, opsPerW int) error {
	popped := make([][]uint64, workers)
	pushed := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := relax.NewUncountedHandle(b)
			rng := xrand.New(uint64(w) + 99)
			base := uint64(w+1) << 40
			n := uint64(0)
			for i := 0; i < opsPerW; i++ {
				if rng.Bool() {
					n++
					wk.Push(base | n)
				} else if v, ok := wk.Pop(); ok {
					popped[w] = append(popped[w], v)
				}
			}
			pushed[w] = n
		}(w)
	}
	wg.Wait()

	var totalPushed uint64
	for _, n := range pushed {
		totalPushed += n
	}
	seen := make(map[uint64]int)
	for w := range popped {
		for _, v := range popped[w] {
			seen[v]++
		}
	}
	drainWorker := relax.NewUncountedHandle(b)
	for {
		v, ok := drainWorker.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	if uint64(len(seen)) != totalPushed {
		return fmt.Errorf("recovered %d distinct values, pushed %d", len(seen), totalPushed)
	}
	for v, n := range seen {
		if n != 1 {
			return fmt.Errorf("value %#x recovered %d times", v, n)
		}
	}
	return nil
}

// checkKBound records a concurrent interval history on b and checks it
// against b's relaxation bound with seqspec's interval checker for b's
// order. Ordering a concurrent history by completion instead would charge
// the structure for scheduling skew: under real parallelism it measures
// even a strict Treiber stack far out of order.
func checkKBound(b relax.Backend[uint64], workers, opsPerW int) error {
	rec := seqspec.NewRecorder(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wk := relax.NewUncountedHandle(b)
			rng := xrand.New(uint64(w) + 7)
			for i := 0; i < opsPerW; i++ {
				if rng.Bool() {
					rec.Push(w, wk.Push)
				} else {
					rec.Pop(w, wk.Pop)
				}
			}
		}(w)
	}
	wg.Wait()
	rec.Drain(workers, relax.NewUncountedHandle(b).Pop)
	k := b.KBound()
	check := seqspec.KStackChecker{K: k}.Check
	if b.Algorithm().Ordering() == relax.OrderFIFO {
		check = seqspec.KFIFOChecker{K: k}.Check
	}
	rep, err := check(rec.History())
	if err != nil {
		return err
	}
	fmt.Printf("  max observed distance %d (bound %d, max slack %d)\n", rep.MaxDistance, k, rep.MaxSlack)
	return nil
}
