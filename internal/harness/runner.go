package harness

import (
	"fmt"
	"runtime"
	"time"

	"stack2d/internal/quality"
	"stack2d/internal/relax"
)

// Workload describes one experiment run, mirroring the paper's setup.
type Workload struct {
	// Workers is P, the number of concurrent operation streams.
	Workers int
	// Duration is the timed phase length (the paper runs 5 s).
	Duration time.Duration
	// Ops, when positive, replaces the timer: each worker performs exactly
	// Ops operations and the run ends when every worker has (Duration is
	// then not read). Tests use it for counts that do not depend on
	// scheduling.
	Ops int
	// PushRatio is the probability an operation is a Push; the paper uses
	// 0.5 ("operations selected uniformly at random from Pop and Push").
	PushRatio float64
	// Prefill is the initial population (the paper: 32,768), present to
	// avoid measuring empty-stack returns.
	Prefill int
	// Seed makes runs reproducible; distinct workers derive distinct
	// streams from it.
	Seed uint64
	// PinThreads locks each worker goroutine to an OS thread, the closest
	// portable analogue of the paper's one-thread-per-core pinning.
	PinThreads bool
	// ThinkSpin inserts a computational load of this many ALU spin
	// iterations between operations. The paper sets it to zero ("to
	// simulate high contention, we put no computational load between
	// operations"); the full version explores non-zero loads, which dilute
	// contention.
	ThinkSpin int
}

// think burns the configured computational load; the result is returned so
// the compiler cannot elide the loop.
func think(n int, acc uint64) uint64 {
	for i := 0; i < n; i++ {
		acc = acc*6364136223846793005 + 1442695040888963407
	}
	return acc
}

// Validate reports whether the workload is runnable.
func (w Workload) Validate() error {
	switch {
	case w.Workers < 1:
		return fmt.Errorf("harness: Workers must be >= 1, got %d", w.Workers)
	case w.Ops < 0:
		return fmt.Errorf("harness: Ops must be >= 0, got %d", w.Ops)
	case w.Ops == 0 && w.Duration <= 0:
		return fmt.Errorf("harness: Duration must be positive, got %v", w.Duration)
	case w.PushRatio < 0 || w.PushRatio > 1:
		return fmt.Errorf("harness: PushRatio must be in [0,1], got %g", w.PushRatio)
	case w.Prefill < 0:
		return fmt.Errorf("harness: Prefill must be >= 0, got %d", w.Prefill)
	case w.ThinkSpin < 0:
		return fmt.Errorf("harness: ThinkSpin must be >= 0, got %d", w.ThinkSpin)
	}
	return nil
}

// DefaultWorkload returns the paper's configuration at p workers with a
// CI-friendly duration; pass -paper to the CLIs for the full 5 s.
func DefaultWorkload(p int) Workload {
	return Workload{
		Workers:   p,
		Duration:  200 * time.Millisecond,
		PushRatio: 0.5,
		Prefill:   32768,
		Seed:      1,
	}
}

// Result summarises one run: its one phase's counts and throughput, plus
// the error-distance distribution when measured (RunQuality).
type Result struct {
	PhaseResult
	Quality quality.Stats
}

// Run executes one throughput run: prefill, then P workers hammer a fresh
// structure from f for the configured duration (or op count).
func Run(f Factory, w Workload) (Result, error) {
	res, _, err := run(f, w, false)
	return res, err
}

// RunQuality executes one run with the error-distance oracle of the
// structure's order attached (see runPhased). Oracle maintenance
// serialises briefly on a mutex per operation, so throughput from a
// quality run underestimates the unobserved system; the paper likewise
// measures the two in dedicated runs.
func RunQuality(f Factory, w Workload) (Result, error) {
	res, _, err := run(f, w, true)
	return res, err
}

// run runs w as the one phase of a phased run on a fresh backend from f,
// named after its algorithm, whose workers drive uncounted handles; it
// returns the backend too, for the identity and bound Measure reports.
func run(f Factory, w Workload, withQuality bool) (Result, relax.Backend[uint64], error) {
	if err := w.Validate(); err != nil {
		return Result{}, nil, err
	}
	b, err := f()
	if err != nil {
		return Result{}, nil, err
	}
	alg := b.Algorithm()
	phase := Phase{Name: alg.String(), Duration: w.Duration, Workers: w.Workers, PushRatio: w.PushRatio, ThinkSpin: w.ThinkSpin}
	pw := PhasedWorkload{MaxWorkers: w.Workers, Prefill: w.Prefill, Seed: w.Seed, Quality: withQuality}
	res, err := runPhased(func(id int) (Worker, func()) {
		if w.PinThreads && id >= 0 {
			runtime.LockOSThread()
			return relax.NewUncountedHandle(b), runtime.UnlockOSThread
		}
		return relax.NewUncountedHandle(b), func() {}
	}, alg.Ordering(), []Phase{phase}, pw, w.Ops)
	if err != nil {
		return Result{}, nil, err
	}
	return Result{PhaseResult: res.Phases[0], Quality: res.Quality}, b, nil
}
