// Package scenarios is the adversarial scenario pack of the conformance
// plane: named, seeded, deterministic directed runs (internal/director)
// against the real structures, each feeding its recorded history through
// the seqspec checker budget AND the internal/quality rank-error oracle.
// EXPERIMENTS.md ("The adversarial scenario pack") documents what each
// scenario targets and how to reproduce it; CI greps the names below
// against that table, so renaming a scenario here without updating the
// docs fails the build.
package scenarios

// Scenario names. One name per line, quoted, so the CI docs-drift grep can
// extract them mechanically.
const (
	// NameTheoremOneReplay replays the sequential explorer's minimal
	// Theorem-1 counterexample (16 ops, distance 7 at width 2, depth 4,
	// shift 1) against the real core.Stack: the retired transcribed
	// constant must be refuted, the corrected bound must hold exactly.
	NameTheoremOneReplay = "replay-theorem1-counterexample"
	// NameQueueWitnessReplay replays the queue explorer's maximum-distance
	// witness at the same geometry against the real twodqueue.Queue.
	NameQueueWitnessReplay = "replay-queue-witness"
	// NameShrinkDuringDrain shrinks the stack's width while directed
	// poppers drain it — the schedule family that realises shrink
	// displacement on top of the window bound.
	NameShrinkDuringDrain = "shrink-during-drain"
	// NameSwapDuringStorm hot-swaps the engine's active backend (2D-stack
	// to treiber and back) in the middle of a directed push/pop storm,
	// exercising the §9 swap-displacement budget.
	NameSwapDuringStorm = "backend-swap-during-storm"
	// NameBufferedShrinkDuringDrain reruns the shrink-during-drain storm
	// with every worker handle armed with an op buffer (DESIGN.md §11):
	// pending pushes and pop prefetches cross the geometry epoch, probing
	// the op buffer's epoch flush; the history is checked under the
	// composed budget K + shrink displacement + seqspec.BufferAllowance.
	NameBufferedShrinkDuringDrain = "buffered-shrink-during-drain"
	// NameBufferedSwapDuringStorm reruns the backend-swap storm through
	// engine-level buffered handles: values pending in a handle while the
	// hot swap drains and migrates must be neither stranded nor duplicated
	// (the engine buffer's swap-safety claim), budgeted with the swap
	// displacement plus the §11 buffer allowance.
	NameBufferedSwapDuringStorm = "buffered-swap-during-storm"
	// NameSocketSkew pins every handle to one socket of a two-socket
	// local-first placement and schedules with PCT priorities, driving the
	// worst contention skew the placement layer permits.
	NameSocketSkew = "socket-skewed-contention"
	// NameGuidedFrontier runs a whole coverage-guided schedule search over
	// the frontier workload at the Theorem-1 counterexample geometry: every
	// directed run the search proposes is drained and checked against the
	// corrected budget, so the scenario is a standing schedule *hunt*, not
	// a single replay.
	NameGuidedFrontier = "guided-frontier-search"
)
