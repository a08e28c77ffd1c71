package seqspec

import (
	"fmt"
	"sort"

	"stack2d/internal/quality"
)

// This file provides the repository's one k-out-of-order distance check:
// KStackChecker and KFIFOChecker take a recorded interval history and
// verify every pop/dequeue against a claimed k-out-of-order bound. They
// measure each distance with internal/quality's rank list (quality.Ranks),
// the instrument the quality oracles measure with too. A sequential
// history is checked as the interval history SequentialIntervals builds:
// no two of its intervals overlap, so every slack below is zero and the
// check is exact. Beside it stand the exhaustive linearizability search
// (CheckLinearizable*, complete but limited to micro-histories) and the
// explorers, which restate the specification independently; this check
// scales to millions of concurrent operations.
//
// A concurrent history does not determine a unique linearization, so the
// realised distance of one pop is not a single number: it depends on where
// the overlapping operations are placed. The checkers therefore replay the
// history in invocation (Begin) order — a valid linearization candidate
// under the recording conventions used throughout this repository — and
// charge each pop a *measurement slack*: operations whose intervals
// overlap the pop (their position relative to the pop is ambiguous) and
// pushes whose intervals overlap the popped value's push (their age
// relative to the popped value is ambiguous) can each displace the
// measured distance by at most one position. A distance within
// k + allowance + slack is therefore consistent with SOME linearization
// respecting the bound; a distance beyond it is not. This makes the check
// a necessary condition with an explicitly accounted error bar, in the
// same spirit as DESIGN.md §2's "one position per in-flight operation"
// slack — not a full linearizability proof, which is NP-hard.
//
// The Allowance field absorbs displacement that is documented and bounded
// but outside the steady-state constant — the warm shrink handoff's
// ShrinkDisplacementBound (DESIGN.md §6) being the intended use.

// KDistanceReport summarises a checker run over one history.
type KDistanceReport struct {
	// Pops is the number of value-returning pops checked; EmptyPops the
	// number of empty reports checked.
	Pops      int
	EmptyPops int
	// MaxDistance is the largest measured out-of-order distance.
	MaxDistance int
	// MaxSlack is the largest per-operation measurement slack that was
	// available; useful for judging how concurrent the recording was.
	MaxSlack int
	// MaxStrain is the largest value of distance − slack over all pops —
	// the distance attributable to the structure itself rather than to
	// measurement ambiguity. A history respects the claimed bound when
	// MaxStrain <= K + Allowance.
	MaxStrain int
}

// KStackChecker verifies concurrent stack histories against a claimed
// k-out-of-order LIFO bound.
type KStackChecker struct {
	// K is the claimed bound — typically Config.K() of the geometry, or
	// the largest K() active during the recording when the geometry was
	// live-reconfigured (plus the transition sum where DESIGN.md §5
	// prescribes it for the queue).
	K int64
	// Allowance is extra displacement budget beyond K, e.g. the
	// structure's ShrinkDisplacementBound after width shrinks. Zero when
	// no reconfiguration displaced items.
	Allowance int64
	// BufferAllowance is the displacement budget for per-handle operation
	// buffering (core.Handle.SetOpBuffer): buffered operations linearize at
	// their publish/serve point, not at their API call, and the Begin-order
	// replay charges that deferral as distance. Set it with the
	// BufferAllowance helper when any recorded handle ran with an armed op
	// buffer; zero otherwise. See DESIGN.md §11 for the accounting argument
	// and its fairness premise.
	BufferAllowance int64
}

// Check replays the history and reports the realised distances. It fails
// on conservation violations (a popped value never pushed, or popped
// twice), on causality violations (a pop returning a value whose push
// began only after the pop returned), and on any pop or empty report whose
// distance exceeds K + Allowance + BufferAllowance + its measurement
// slack.
func (c KStackChecker) Check(ops []IntervalOp) (KDistanceReport, error) {
	return checkKDistance(ops, c.K, c.Allowance+c.BufferAllowance, false)
}

// KFIFOChecker is KStackChecker's queue counterpart: OpPush records an
// enqueue, OpPop a dequeue, and distances are measured from the FIFO
// front.
type KFIFOChecker struct {
	// K is the claimed bound; see KStackChecker.K. For histories spanning
	// a live reconfiguration DESIGN.md §5 prescribes summing the two
	// geometries' bounds (items placed under the old windows drain under
	// the new ones).
	K int64
	// Allowance is extra displacement budget beyond K; see
	// KStackChecker.Allowance.
	Allowance int64
	// BufferAllowance is the op-buffering displacement budget; see
	// KStackChecker.BufferAllowance.
	BufferAllowance int64
}

// Check replays the history and reports the realised distances; semantics
// as in KStackChecker.Check with FIFO distance measurement.
func (c KFIFOChecker) Check(ops []IntervalOp) (KDistanceReport, error) {
	return checkKDistance(ops, c.K, c.Allowance+c.BufferAllowance, true)
}

// BufferAllowance bounds the extra out-of-order distance attributable to
// per-handle operation buffering, for a recording with `handles` buffered
// handles of combined-publication threshold `cap` (DESIGN.md §11). The
// three terms, each at most handles·cap: pending residency (every handle
// may hold up to cap unpublished pushes), prefetch residency (up to cap
// popped-but-undelivered values), and delivery staleness (a served
// prefetched value aged by at most (handles−1)·cap foreign buffered ops
// since its refill, under the fairness premise that every handle publishes
// within its next cap own-operations).
func BufferAllowance(handles, cap int) int64 {
	if handles < 0 || cap < 0 {
		return 0
	}
	return 3 * int64(handles) * int64(cap)
}

// SequentialIntervals converts a completion-order history into an
// interval history with pairwise non-overlapping intervals (op i occupies
// [2i, 2i+1]), the form in which the checkers check a sequential history.
// No operation overlaps another, so the measurement slack is zero: every
// pop's distance must stay within K + allowance exactly, and an empty
// report is legal only while at most K + allowance items are resident.
func SequentialIntervals(ops []Op) []IntervalOp {
	out := make([]IntervalOp, len(ops))
	for i, op := range ops {
		out[i] = IntervalOp{
			Kind: op.Kind, Value: op.Value, Empty: op.Empty,
			Begin: int64(2 * i), End: int64(2*i + 1),
		}
	}
	return out
}

// overlapCounter answers "how many other operations' intervals intersect
// this one" in O(log n) per query, via sorted Begin/End arrays: the ops
// NOT overlapping [b, e] are exactly those with End < b plus those with
// Begin > e.
type overlapCounter struct {
	begins []int64
	ends   []int64
}

func newOverlapCounter(ops []IntervalOp) *overlapCounter {
	oc := &overlapCounter{
		begins: make([]int64, len(ops)),
		ends:   make([]int64, len(ops)),
	}
	for i, op := range ops {
		oc.begins[i] = op.Begin
		oc.ends[i] = op.End
	}
	sort.Slice(oc.begins, func(i, j int) bool { return oc.begins[i] < oc.begins[j] })
	sort.Slice(oc.ends, func(i, j int) bool { return oc.ends[i] < oc.ends[j] })
	return oc
}

// overlapping returns the number of operations other than the queried one
// whose interval intersects [b, e].
func (oc *overlapCounter) overlapping(b, e int64) int {
	endedBefore := sort.Search(len(oc.ends), func(i int) bool { return oc.ends[i] >= b })
	beganAfter := len(oc.begins) - sort.Search(len(oc.begins), func(i int) bool { return oc.begins[i] > e })
	return len(oc.begins) - endedBefore - beganAfter - 1
}

// checkKDistance is the shared engine of both checkers; fifo orders the
// rank list for a queue.
func checkKDistance(ops []IntervalOp, k, allowance int64, fifo bool) (KDistanceReport, error) {
	var rep KDistanceReport
	if k < 0 {
		return rep, fmt.Errorf("seqspec: claimed k must be >= 0, got %d", k)
	}
	for i, op := range ops {
		if op.Begin > op.End {
			return rep, fmt.Errorf("seqspec: op %d: Begin %d > End %d", i, op.Begin, op.End)
		}
	}

	// Replay in invocation order: a valid linearization candidate under
	// this repository's recording conventions (stable sort keeps each
	// worker's own operations in program order on Begin ties).
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return ops[order[a]].Begin < ops[order[b]].Begin })

	pushAt := make(map[uint64]int, len(ops)/2)
	for i, op := range ops {
		if op.Kind != OpPush {
			continue
		}
		if prev, dup := pushAt[op.Value]; dup {
			return rep, fmt.Errorf("seqspec: value %d pushed twice (ops %d and %d)", op.Value, prev, i)
		}
		pushAt[op.Value] = i
	}

	oc := newOverlapCounter(ops)
	// pushOverlap caches, per value, the number of operations ambiguous
	// against its push — the age-classification half of the slack.
	pushOverlap := func(v uint64) int {
		p := ops[pushAt[v]]
		return oc.overlapping(p.Begin, p.End)
	}

	// ranks holds the resident values in strict order: newest first for a
	// stack, oldest first for a queue.
	var ranks quality.Ranks
	consumed := make(map[int]bool)
	popped := make(map[uint64]int, len(ops)/2)
	for _, i := range order {
		op := ops[i]
		switch {
		case op.Kind == OpPush:
			if !consumed[i] {
				ranks.Insert(op.Value, fifo)
			}
		case op.Empty:
			rep.EmptyPops++
			slack := oc.overlapping(op.Begin, op.End)
			if slack > rep.MaxSlack {
				rep.MaxSlack = slack
			}
			if present := int64(ranks.Len()) - int64(slack); present > k+allowance {
				return rep, fmt.Errorf("seqspec: op %d: pop reported empty with %d items present (k=%d allowance=%d slack=%d)",
					i, ranks.Len(), k, allowance, slack)
			}
		default:
			if prev, dup := popped[op.Value]; dup {
				return rep, fmt.Errorf("seqspec: value %d popped twice (ops %d and %d)", op.Value, prev, i)
			}
			popped[op.Value] = i
			pi, pushed := pushAt[op.Value]
			if !pushed {
				return rep, fmt.Errorf("seqspec: op %d: pop returned %d which was never pushed", i, op.Value)
			}
			dist, found := ranks.Remove(op.Value)
			if !found {
				// The value's push has a later Begin: legal only if the two
				// operations overlap in real time, in which case the pair
				// linearizes back to back (distance 0 in that candidate).
				p := ops[pi]
				if p.Begin > op.End || consumed[pi] {
					return rep, fmt.Errorf("seqspec: op %d: pop returned %d before its push (op %d) was invoked", i, op.Value, pi)
				}
				consumed[pi] = true
				dist = 0
			}
			rep.Pops++
			slack := oc.overlapping(op.Begin, op.End) + pushOverlap(op.Value)
			if dist > rep.MaxDistance {
				rep.MaxDistance = dist
			}
			if slack > rep.MaxSlack {
				rep.MaxSlack = slack
			}
			if strain := dist - slack; strain > rep.MaxStrain {
				rep.MaxStrain = strain
			}
			if int64(dist) > k+allowance+int64(slack) {
				return rep, fmt.Errorf("seqspec: op %d: pop of %d at distance %d exceeds k=%d (allowance %d, slack %d)",
					i, op.Value, dist, k, allowance, slack)
			}
		}
	}
	return rep, nil
}
