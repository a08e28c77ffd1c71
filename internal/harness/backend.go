package harness

import (
	"stack2d/internal/quality"
	"stack2d/internal/relax"
)

// This file plugs the relax.Backend contract (and hence the engine
// switcher) into the harness: any backend runs under the same phased
// workload engine as the concrete structures, so the swap-hammer
// conformance runs and the engine demo reuse one load generator.

// RunPhasedBackend drives a phase-shifting workload against any backend —
// including an engine.Switcher, whose swap schedule the caller owns, the
// same contract as RunPhased's controller ownership. The quality oracle
// follows the backend's ordering discipline (LIFO or FIFO; pool-semantics
// backends run with Quality off or not at all). relax handles satisfy the
// Worker interface directly, and their Flush publishes the counters a
// sampling Selector reads.
func RunPhasedBackend(b relax.Backend[uint64], phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	var oracle phasedOracle
	insertFirst := false
	if b.Algorithm().Ordering() == relax.OrderFIFO {
		insertFirst = true // see runPhased: FIFO oracles record at invocation
		if w.Quality {
			oracle = &quality.FIFOOracle{}
		}
	} else if w.Quality {
		oracle = &quality.Oracle{}
	}
	return runPhased(func(id int) (Worker, func()) {
		h := b.NewHandle()
		return h, h.Flush
	}, oracle, insertFirst, phases, w)
}
