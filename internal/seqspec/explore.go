package seqspec

import (
	"fmt"
	"slices"
)

// This file implements the exhaustive sequential state-space explorer that
// settles the Theorem-1 constant (DESIGN.md §2): a breadth-first search over
// *every* push/pop interleaving of the 2D-window discipline at a small
// geometry, tracking the realised out-of-order distance of each pop. Because
// the search is exhaustive over all nondeterministic choices (which window-
// valid sub-stack an operation lands on), the result is a machine-checked
// certificate: either no history within the horizon exceeds the claimed
// bound, or a minimal-length counterexample trace is produced (BFS order
// guarantees minimality).
//
// The model is the sequential semantics of internal/core's window
// discipline, restated independently of the implementation so the
// certificate checks the *specification*, not the code that is being
// specified:
//
//   - Push is valid on sub-stack i while count(i) < Global; when no
//     sub-stack is valid (all counts equal Global), Global rises by shift —
//     exactly once, after which every sub-stack is valid again.
//   - Pop is valid on sub-stack i while count(i) > max(0, Global − depth);
//     when no sub-stack is valid the window lowers by shift (floored at
//     depth) until one is, or reports empty at the floor. In the sequential
//     model an empty report is exact (all counts are zero), so empty pops
//     neither change state nor need a legality budget.
//
// Within a sub-stack LIFO order is strict; the distance of a pop is the
// number of strictly younger items resident anywhere in the structure —
// the k-out-of-order measure of Henzinger et al. (POPL'13).

// ExploreConfig parameterises one exhaustive exploration.
type ExploreConfig struct {
	// Width, Depth, Shift are the window geometry under test, with the same
	// validity constraints as core.Config (width >= 1, 1 <= shift <= depth).
	Width int
	Depth int
	Shift int
	// MaxOps is the exploration horizon: every history of at most MaxOps
	// operations is covered. The state space is finite for any horizon and
	// the search memoises canonical states, so the cost grows with the
	// number of distinct reachable states, not the number of histories.
	MaxOps int
	// Bound is the claimed k to certify. Negative means measure only (no
	// counterexample search, full horizon always explored).
	Bound int
}

// ExploreStep is one operation of an explorer trace. Values are push
// labels (the n-th push carries label n), so a printed trace is a directly
// replayable script; internally the search stores items as dense age
// ranks for canonicalisation, and relabelSteps converts a reconstructed
// trace back to labels.
type ExploreStep struct {
	Push  bool
	Sub   int // sub-stack the operation landed on
	Value int // pushed label / popped label (labels count pushes from 1)
	Dist  int // pop only: realised out-of-order distance
}

func (s ExploreStep) String() string {
	if s.Push {
		return fmt.Sprintf("push %d -> sub %d", s.Value, s.Sub)
	}
	return fmt.Sprintf("pop sub %d = %d (dist %d)", s.Sub, s.Value, s.Dist)
}

// ExploreResult is the outcome of an exhaustive exploration.
type ExploreResult struct {
	// MaxDistance is the largest pop distance realised by any explored
	// history; with a non-negative Bound the search stops at the first
	// violation, so MaxDistance is then the violating distance.
	MaxDistance int
	// States is the number of distinct canonical states visited.
	States int
	// Ops is the horizon actually explored (= config MaxOps unless a
	// counterexample cut the search short).
	Ops int
	// Counterexample is a minimal-length history whose final pop exceeds
	// Bound, or nil when every history within the horizon respects it.
	Counterexample []ExploreStep
	// Witness is a history realising MaxDistance (always set when any pop
	// occurred); for a certification run it doubles as evidence of how
	// close the explored histories come to the claimed bound.
	Witness []ExploreStep
}

// Certified reports whether the exploration completed its horizon without
// exceeding the claimed bound.
func (r ExploreResult) Certified() bool { return r.Counterexample == nil }

// maxExploreOps caps the horizon so that item age ranks fit the compact
// one-byte state encoding (ranks < resident items <= pushes <= MaxOps).
// Exhaustive exploration is hopeless long before this limit anyway.
const maxExploreOps = 200

// exploreModel is one structure's sequential window model as the
// breadth-first driver sees it: a canonical state that serialises itself
// for memoisation and lists the transitions out of it.
type exploreModel[S any] interface {
	key() string
	// successors appends each transition to out, pushes before pops, each
	// by sub-structure index; a pop's step carries its distance, and its
	// Value the popped item's age rank. The order decides which trace
	// first reaches a state, so it fixes every returned trace.
	successors(cfg ExploreConfig, out []transition[S]) []transition[S]
}

// transition is one operation out of a model state: the state it leads to
// and the step that takes it there.
type transition[S any] struct {
	next S
	step ExploreStep
}

// explore is the breadth-first driver both explorers run. It validates
// cfg, expands states level by level from start up to the horizon,
// memoises canonical states, keeps a witness of the largest distance, and
// with a non-negative Bound stops at the first pop beyond it, returning the
// minimal trace that reaches it.
func explore[S exploreModel[S]](cfg ExploreConfig, start func() S) (ExploreResult, error) {
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

	first := start()
	startKey := first.key()
	seen := map[string]traceNode{startKey: {}}
	frontier := []S{first}
	var succ []transition[S]

	var witnessKey string
	var witnessStep ExploreStep

	for depth := 0; depth < cfg.MaxOps && len(frontier) > 0; depth++ {
		var next []S
		for _, st := range frontier {
			stKey := st.key()
			succ = st.successors(cfg, succ[:0])
			for _, tr := range succ {
				if tr.step.Dist > res.MaxDistance {
					res.MaxDistance = tr.step.Dist
					witnessKey, witnessStep = stKey, tr.step
				}
				if cfg.Bound >= 0 && tr.step.Dist > cfg.Bound {
					res.Counterexample = rebuildTrace(seen, startKey, stKey, tr.step)
					res.Witness = res.Counterexample
					res.States = len(seen)
					res.Ops = depth + 1
					return res, nil
				}
				k := tr.next.key()
				if _, dup := seen[k]; !dup {
					seen[k] = traceNode{parent: stKey, step: tr.step}
					next = append(next, tr.next)
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

// exploreState is one canonical state of the abstract machine. Sub-stack
// items are age ranks (0 = oldest item currently resident); ranks are
// recomputed after every pop so states reached by different histories with
// the same relative age structure coincide.
type exploreState struct {
	global int
	subs   [][]int16
}

// key serialises the state for memoisation. Ranks are dense (< resident
// item count <= MaxOps) and Global is bounded by depth + shift·pushes, so
// both fit comfortably in a compact byte encoding: two bytes of Global,
// then each sub-stack's ranks terminated by 0xff (ranks are capped well
// below 0xff by the exploration horizon limit maxExploreOps).
func (st *exploreState) key() string {
	n := 3 + len(st.subs)
	for _, sub := range st.subs {
		n += len(sub)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, byte(st.global), byte(st.global>>8))
	for _, sub := range st.subs {
		for _, it := range sub {
			buf = append(buf, byte(it))
		}
		buf = append(buf, 0xff)
	}
	return string(buf)
}

// successors lists the stack model's transitions (see the file comment):
// a push onto every sub-stack below the ceiling, then a pop from every
// sub-stack above the floor.
func (st *exploreState) successors(cfg ExploreConfig, out []transition[*exploreState]) []transition[*exploreState] {
	// Pushes. If every sub-stack is at the ceiling the window rises once
	// (deterministic), then every sub-stack is valid.
	pushGlobal := st.global
	if !slices.ContainsFunc(st.subs, func(sub []int16) bool { return len(sub) < pushGlobal }) {
		pushGlobal += cfg.Shift
	}
	newRank := int16(countItems(st.subs)) // denser than any existing rank
	for i, sub := range st.subs {
		if len(sub) >= pushGlobal {
			continue
		}
		ns := &exploreState{global: pushGlobal, subs: cloneSubs(st.subs)}
		// Ranks stay dense after a push (new item = max rank), so no
		// re-densify needed. Value is assigned by relabelSteps when a
		// trace is reconstructed.
		ns.subs[i] = append(ns.subs[i], newRank)
		out = append(out, transition[*exploreState]{ns, ExploreStep{Push: true, Sub: i}})
	}

	// Pops. Lower the window (deterministically) until some sub-stack is
	// poppable or the floor is reached; an empty report at the floor
	// changes nothing and is exact, so it is not a transition.
	popGlobal := st.global
	floor := max(popGlobal-cfg.Depth, 0)
	for !slices.ContainsFunc(st.subs, func(sub []int16) bool { return len(sub) > floor }) {
		if popGlobal <= cfg.Depth {
			return out
		}
		popGlobal = max(popGlobal-cfg.Shift, cfg.Depth)
		floor = max(popGlobal-cfg.Depth, 0)
	}
	for i, sub := range st.subs {
		if len(sub) <= floor {
			continue
		}
		top := sub[len(sub)-1]
		ns := &exploreState{global: popGlobal, subs: cloneSubs(st.subs)}
		ns.subs[i] = ns.subs[i][:len(sub)-1]
		dist := dropRank(ns.subs, top, false)
		out = append(out, transition[*exploreState]{ns, ExploreStep{Sub: i, Value: int(top), Dist: dist}})
	}
	return out
}

// cloneSubs deep-copies sub-structure rank lists.
func cloneSubs(subs [][]int16) [][]int16 {
	n := make([][]int16, len(subs))
	for i, sub := range subs {
		n[i] = append([]int16(nil), sub...)
	}
	return n
}

// countItems counts the items resident across sub-structure rank lists.
func countItems(subs [][]int16) int {
	n := 0
	for _, sub := range subs {
		n += len(sub)
	}
	return n
}

// dropRank takes out age rank `removed`, which a pop just took off its
// sub-structure, and returns the pop's out-of-order distance: the resident
// items younger than it for a stack, older than it for a queue (fifo).
// Ranks are dense 0..n-1 before a pop, so every larger rank shifts down by
// one. (Pushes keep density by construction: the new item takes rank n.)
func dropRank(subs [][]int16, removed int16, fifo bool) (dist int) {
	for _, sub := range subs {
		for i, it := range sub {
			if it > removed {
				sub[i] = it - 1
				if !fifo {
					dist++
				}
			} else if fifo {
				dist++
			}
		}
	}
	return dist
}

// traceNode records how a state was first reached, for minimal trace
// reconstruction.
type traceNode struct {
	parent string
	step   ExploreStep
}

// rebuildTrace reconstructs the minimal history that first reached `key`
// by walking the BFS parent links, appends the final step, and rewrites
// rank Values into push labels.
func rebuildTrace(seen map[string]traceNode, startKey, key string, last ExploreStep) []ExploreStep {
	var steps []ExploreStep
	for key != startKey {
		n := seen[key]
		steps = append(steps, n.step)
		key = n.parent
	}
	slices.Reverse(steps)
	return relabelSteps(append(steps, last))
}

// relabelSteps rewrites a reconstructed trace's Values from the search's
// internal age ranks to push labels (n-th push = label n), replaying the
// trace to track which label each rank denotes at every pop. A pop's Value
// is the popped item's rank among residents (0 = oldest), a push's an
// arbitrary placeholder.
func relabelSteps(steps []ExploreStep) []ExploreStep {
	var resident []int // index = age rank among residents, value = label
	pushes := 0
	for i, s := range steps {
		if s.Push {
			pushes++
			steps[i].Value = pushes
			resident = append(resident, pushes)
		} else {
			steps[i].Value = resident[s.Value]
			resident = append(resident[:s.Value], resident[s.Value+1:]...)
		}
	}
	return steps
}

// ExploreStack exhaustively explores the sequential 2D-Stack model. See the
// file comment for the semantics; the search is breadth-first in history
// length, so a returned counterexample is minimal.
func ExploreStack(cfg ExploreConfig) (ExploreResult, error) {
	return explore(cfg, func() *exploreState {
		return &exploreState{global: cfg.Depth, subs: make([][]int16, cfg.Width)}
	})
}
