// Package stack2d provides a scalable lock-free concurrent stack with
// tunable relaxed semantics — a faithful Go implementation of the 2D-Stack
// of Rukundo, Atalar and Tsigas ("Brief Announcement: 2D-Stack — A Scalable
// Lock-Free Stack Design that Continuously Relaxes Semantics for Better
// Performance", PODC 2018).
//
// A classic concurrent stack has a single access point — the top — which
// serialises every operation. The 2D-Stack replaces it with an array of
// `width` sub-stacks (disjoint-access parallelism, the horizontal
// dimension) and a window of height `depth` that keeps the sub-stack
// populations within a tight band (locality, the vertical dimension). A Pop
// may return an item that is not the exact LIFO top, but never one more
// than
//
//	k = (2·depth + shift) · (width − 1)
//
// positions away from it (k-out-of-order semantics, Theorem 1 of the
// paper with the constant corrected — the paper's transcription swaps
// the weights of depth and shift, which sequential counterexamples
// refute for shift < depth and which coincides with the form above at
// shift = depth, the paper's own setting and what every derived
// configuration here uses; DESIGN.md §2 records the resolution and the
// exhaustive-exploration certificate behind it). The parameters trade
// accuracy for throughput continuously, and a width-1 configuration
// degenerates to a strict lock-free stack. K() reports the bound of the
// active configuration, exact for every legal shift; concurrent
// executions add at most one position of measurement slack per in-flight
// operation.
//
// # Quick start
//
//	s := stack2d.New[int](stack2d.WithExpectedThreads(8))
//	h := s.NewHandle() // one per goroutine
//	h.Push(42)
//	v, ok := h.Pop()
//
// Handles carry the per-goroutine search state the algorithm needs; the
// convenience methods Stack.Push and Stack.Pop manage a pool of handles
// internally for callers that cannot thread a handle through.
//
// # Runtime self-tuning
//
// The window geometry need not be fixed: Adaptive wraps a Stack with a
// feedback controller that samples contention (CAS failures), window
// churn and search cost at runtime and retunes width and depth on the
// fly, either maximising throughput under a relaxation ceiling or holding
// a throughput floor at minimal k (see WithAdaptive and cmd/adapttune).
//
//	s := stack2d.NewAdaptive[int](stack2d.WithAdaptive(stack2d.AdaptivePolicy{
//		Goal:     stack2d.GoalMaxThroughput,
//		KCeiling: 8192,
//	}))
//	defer s.Close()
//
// # The 2D-Queue
//
// The paper's conclusion announces generalising the window technique to
// other structures; Queue is that generalisation for a FIFO queue. It
// spreads items over `width` Michael–Scott sub-queues with one window per
// end (enqueue and dequeue), dequeuing at most K() positions out of FIFO
// order, and a width-1 configuration degenerates to the strict queue
// (also available directly as StrictQueue). The queue shares the stack's
// geometry (Config) and takes the stack's options, read the same way over
// GOMAXPROCS-derived defaults.
//
//	q := stack2d.NewQueue[int](stack2d.WithExpectedThreads(8))
//	h := q.NewHandle() // one per goroutine
//	h.Enqueue(42)
//	v, ok := h.Dequeue()
//
// The queue self-tunes exactly like the stack: AdaptiveQueue attaches the
// same feedback controller to the queue's two-ended window geometry (see
// WithAdaptive and cmd/adapttune -queue).
//
//	q := stack2d.NewAdaptiveQueue[int](stack2d.WithAdaptive(stack2d.AdaptivePolicy{
//		Goal:     stack2d.GoalMaxThroughput,
//		KCeiling: 8192,
//	}))
//	defer q.Close()
//
// # NUMA-aware placement
//
// On multi-socket machines both structures can home each sub-structure
// slot on a socket and let handles probe same-socket slots first, keeping
// the window's hot cache lines intra-socket; the adaptive controller then
// places new capacity on the socket whose contention asked for it. Enable
// with WithPlacement on either structure (policies LocalFirst and
// RoundRobin) and pin handles with Handle.Pin; placement never changes
// the relaxation semantics, only slot homes and probe order (DESIGN.md
// §7, and cmd/adapttune -placement for the measured A/B).
//
// The companion packages under internal implement every baseline of the
// paper's evaluation (Treiber, elimination back-off, k-segment, and the
// random / random-c2 / k-robin distributed stacks), the quality oracle and
// the benchmark harness; see DESIGN.md in the repository root for the
// design notes (window mechanism, Theorem 1 bound, reconfiguration
// invariants), and cmd/stackbench for regenerating the paper's figures.
package stack2d
