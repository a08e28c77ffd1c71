package seqspec

import "slices"

// This file is the queue counterpart of explore.go: an exhaustive
// breadth-first exploration of the sequential 2D-Queue window discipline
// (internal/twodqueue), certifying its k-out-of-order FIFO bound the same
// way ExploreStack certifies the stack's.
//
// The abstract machine, restated independently of the implementation:
// each of `width` sub-queues carries two monotone counters — enqueues and
// dequeues completed — and there is one ceiling per end (GlobalEnq,
// GlobalDeq), both monotone non-decreasing.
//
//   - Enqueue is valid on sub-queue i while enqs(i) < GlobalEnq; when every
//     sub-queue is at the ceiling, GlobalEnq rises by shift (exactly once,
//     re-validating every sub-queue).
//   - Dequeue is productive on sub-queue i while deqs(i) < GlobalDeq and
//     the sub-queue is non-empty. When no sub-queue is productive but a
//     non-empty one sits at the dequeue ceiling, GlobalDeq rises by shift
//     and the search repeats; when every sub-queue is empty the queue
//     reports empty (exact in the sequential model).
//
// Only the gaps ceiling − counter matter to the dynamics, never the
// absolute counts, so states are canonicalised on those gaps — this is
// what keeps the reachable state space independent of how far the
// monotone ceilings have travelled. The distance of a dequeue is the
// number of strictly older items still resident anywhere — the
// k-out-of-order FIFO measure KFIFOChecker takes with the rank list.

// exploreQState is one canonical 2D-Queue state: per sub-queue the gap to
// each ceiling plus the resident items as dense age ranks (front first).
type exploreQState struct {
	enqGap []int16 // GlobalEnq − enqs(i); in [0, max(depth, shift)]
	deqGap []int16 // GlobalDeq − deqs(i)
	subs   [][]int16
}

func (st *exploreQState) key() string {
	n := 1 + 3*len(st.subs)
	for _, sub := range st.subs {
		n += len(sub)
	}
	buf := make([]byte, 0, n)
	for i := range st.subs {
		buf = append(buf, byte(st.enqGap[i]), byte(st.deqGap[i]))
		for _, it := range st.subs[i] {
			buf = append(buf, byte(it))
		}
		buf = append(buf, 0xff)
	}
	return string(buf)
}

// successors lists the queue model's transitions (see the file comment):
// an enqueue onto every sub-queue below the enqueue ceiling, then a
// dequeue from every productive sub-queue.
func (st *exploreQState) successors(cfg ExploreConfig, out []transition[*exploreQState]) []transition[*exploreQState] {
	// Enqueues: raise the ceiling once if every sub-queue is at it.
	enqBump := int16(0)
	if !slices.ContainsFunc(st.enqGap, func(gap int16) bool { return gap > 0 }) {
		enqBump = int16(cfg.Shift)
	}
	newRank := int16(countItems(st.subs))
	for i := range st.subs {
		if st.enqGap[i]+enqBump <= 0 {
			continue
		}
		ns := st.clone()
		for j := range ns.enqGap {
			ns.enqGap[j] += enqBump
		}
		ns.enqGap[i]--
		ns.subs[i] = append(ns.subs[i], newRank)
		out = append(out, transition[*exploreQState]{ns, ExploreStep{Push: true, Sub: i}})
	}

	// Dequeues: raise the dequeue ceiling while no sub-queue is productive
	// but a non-empty one sits at the ceiling; all-empty states report
	// empty exactly (not a transition).
	deqBump := int16(0)
	for {
		productive, blocked := false, false
		for i, sub := range st.subs {
			if len(sub) == 0 {
				continue
			}
			if st.deqGap[i]+deqBump > 0 {
				productive = true
				break
			}
			blocked = true
		}
		if productive {
			break
		}
		if !blocked {
			return out
		}
		deqBump += int16(cfg.Shift)
	}
	for i, sub := range st.subs {
		if len(sub) == 0 || st.deqGap[i]+deqBump <= 0 {
			continue
		}
		front := sub[0]
		ns := st.clone()
		for j := range ns.deqGap {
			ns.deqGap[j] += deqBump
		}
		ns.deqGap[i]--
		ns.subs[i] = ns.subs[i][1:]
		dist := dropRank(ns.subs, front, true)
		out = append(out, transition[*exploreQState]{ns, ExploreStep{Sub: i, Value: int(front), Dist: dist}})
	}
	return out
}

func (st *exploreQState) clone() *exploreQState {
	return &exploreQState{
		enqGap: slices.Clone(st.enqGap),
		deqGap: slices.Clone(st.deqGap),
		subs:   cloneSubs(st.subs),
	}
}

// ExploreQueue exhaustively explores the sequential 2D-Queue model
// (OpPush = enqueue, OpPop = dequeue in the returned traces). Semantics in
// the file comment; breadth-first order makes a returned counterexample
// minimal.
func ExploreQueue(cfg ExploreConfig) (ExploreResult, error) {
	return explore(cfg, func() *exploreQState {
		// Both ceilings start at depth with zero counters.
		st := &exploreQState{
			enqGap: make([]int16, cfg.Width),
			deqGap: make([]int16, cfg.Width),
			subs:   make([][]int16, cfg.Width),
		}
		for i := range st.subs {
			st.enqGap[i] = int16(cfg.Depth)
			st.deqGap[i] = int16(cfg.Depth)
		}
		return st
	})
}
