package seqspec

import "fmt"

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

func (st *exploreQState) clone() *exploreQState {
	n := &exploreQState{
		enqGap: append([]int16(nil), st.enqGap...),
		deqGap: append([]int16(nil), st.deqGap...),
		subs:   make([][]int16, len(st.subs)),
	}
	for i, sub := range st.subs {
		n.subs[i] = append([]int16(nil), sub...)
	}
	return n
}

// ExploreQueue exhaustively explores the sequential 2D-Queue model
// (OpPush = enqueue, OpPop = dequeue in the returned traces). Semantics in
// the file comment; breadth-first order makes a returned counterexample
// minimal.
func ExploreQueue(cfg ExploreConfig) (ExploreResult, error) {
	var res ExploreResult
	switch {
	case cfg.Width < 1:
		return res, fmt.Errorf("seqspec: explore Width must be >= 1, got %d", cfg.Width)
	case cfg.Depth < 1:
		return res, fmt.Errorf("seqspec: explore Depth must be >= 1, got %d", cfg.Depth)
	case cfg.Shift < 1 || cfg.Shift > cfg.Depth:
		return res, fmt.Errorf("seqspec: explore Shift must be in [1, Depth=%d], got %d", cfg.Depth, cfg.Shift)
	case cfg.MaxOps < 1 || cfg.MaxOps > maxExploreOps:
		return res, fmt.Errorf("seqspec: explore MaxOps must be in [1, %d], got %d", maxExploreOps, cfg.MaxOps)
	}

	start := &exploreQState{
		enqGap: make([]int16, cfg.Width),
		deqGap: make([]int16, cfg.Width),
		subs:   make([][]int16, cfg.Width),
	}
	for i := 0; i < cfg.Width; i++ {
		// Both ceilings start at depth with zero counters.
		start.enqGap[i] = int16(cfg.Depth)
		start.deqGap[i] = int16(cfg.Depth)
	}
	startKey := start.key()
	seen := map[string]traceNode{startKey: {}}
	frontier := []*exploreQState{start}

	var witnessKey string
	var witnessStep ExploreStep

	for depth := 0; depth < cfg.MaxOps && len(frontier) > 0; depth++ {
		var next []*exploreQState
		for _, st := range frontier {
			stKey := st.key()

			// Enqueues: raise the ceiling once if every sub-queue is at it.
			enqBump := int16(0)
			anyValid := false
			for _, gap := range st.enqGap {
				if gap > 0 {
					anyValid = true
					break
				}
			}
			if !anyValid {
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
				// Value is assigned by relabelSteps at trace reconstruction.
				step := ExploreStep{Push: true, Sub: i}
				k := ns.key()
				if _, dup := seen[k]; !dup {
					seen[k] = traceNode{parent: stKey, step: step}
					next = append(next, ns)
				}
			}

			// Dequeues: raise the dequeue ceiling while no sub-queue is
			// productive but a non-empty one sits at the ceiling; all-empty
			// states report empty exactly (not a transition).
			deqBump := int16(0)
			for {
				productive := false
				blocked := false
				for i := range st.subs {
					if len(st.subs[i]) == 0 {
						continue
					}
					if st.deqGap[i]+deqBump > 0 {
						productive = true
						break
					}
					blocked = true
				}
				if productive || !blocked {
					anyValid = productive
					break
				}
				deqBump += int16(cfg.Shift)
			}
			if anyValid {
				for i := range st.subs {
					if len(st.subs[i]) == 0 || st.deqGap[i]+deqBump <= 0 {
						continue
					}
					front := st.subs[i][0]
					dist := 0
					for _, other := range st.subs {
						for _, it := range other {
							if it < front {
								dist++
							}
						}
					}
					ns := st.clone()
					for j := range ns.deqGap {
						ns.deqGap[j] += deqBump
					}
					ns.deqGap[i]--
					ns.subs[i] = append([]int16(nil), ns.subs[i][1:]...)
					dropRank(ns.subs, front)
					// Value carries the dequeued item's age rank until
					// relabelSteps rewrites it into a push label.
					step := ExploreStep{Push: false, Sub: i, Value: int(front), Dist: dist}
					if dist > res.MaxDistance {
						res.MaxDistance = dist
						witnessKey, witnessStep = stKey, step
					}
					if cfg.Bound >= 0 && dist > cfg.Bound {
						res.Counterexample = rebuildTrace(seen, startKey, stKey, step)
						res.Witness = res.Counterexample
						res.States = len(seen)
						res.Ops = depth + 1
						return res, nil
					}
					k := ns.key()
					if _, dup := seen[k]; !dup {
						seen[k] = traceNode{parent: stKey, step: step}
						next = append(next, ns)
					}
				}
			}
		}
		frontier = next
		res.Ops = depth + 1
	}
	res.States = len(seen)
	if witnessKey != "" {
		res.Witness = rebuildTrace(seen, startKey, witnessKey, witnessStep)
	}
	return res, nil
}
