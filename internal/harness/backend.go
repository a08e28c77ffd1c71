package harness

import "stack2d/internal/relax"

// This file plugs the relax.Backend contract (and hence the engine
// switcher) into the harness: any backend runs under the same phased
// workload engine as the concrete structures, so the swap-hammer
// conformance runs and the engine demo reuse one load generator.

// RunPhasedBackend drives a phase-shifting workload against any backend —
// including an engine.Switcher, whose swap schedule the caller owns, the
// same contract as RunPhased's controller ownership. The quality oracle
// follows the backend's ordering discipline (Algorithm().Ordering()).
// relax handles satisfy the Worker interface directly, and their Flush
// publishes the counters a sampling Selector reads.
func RunPhasedBackend(b relax.Backend[uint64], phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	return runPhased(func(id int) (Worker, func()) {
		h := b.NewHandle()
		return h, h.Flush
	}, b.Algorithm().Ordering(), phases, w, 0)
}
