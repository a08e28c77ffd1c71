package core

import "stack2d/internal/xrand"

// NUMA-aware width placement (DESIGN.md §7). The paper's Figure-2 cliff at
// P > 8 is an inter-socket coherence effect: once threads span sockets,
// every descriptor CAS can force a cross-socket cache-line transfer. The
// placement subsystem attacks it from both sides — *homing* (each sub-stack
// slot is assigned a socket, and width growth places new slots on the
// socket whose contention asked for them) and *probe order* (a handle that
// knows its socket visits same-socket slots before remote ones, within the
// unchanged window discipline). Homing and probe order never touch window
// validity, so the Theorem 1 relaxation bound is preserved; only the
// order in which candidate slots are inspected changes.
//
// On the native container (one hardware thread) the socket model is purely
// logical; internal/sim prices it on the paper's 2-socket machine, which is
// where cmd/adapttune's local-vs-round-robin A/B gate demonstrates the win
// deterministically.

// MaxPlacementSockets caps the socket ids the placement subsystem (and the
// per-socket CAS attribution in OpStats) reasons about. Larger ids are
// folded modulo this bound.
const MaxPlacementSockets = 8

// heuristicCoresPerSocket is the logical cores-per-socket the handle
// creation-order heuristic assumes, mirroring the simulated machine
// (sim.DefaultMachine: 2×8 cores) and the harness's fill-socket-0-first
// worker pinning.
const heuristicCoresPerSocket = 8

// HeuristicSocket maps a creation-order index to a socket the way the
// harness pins workers to cores: cores fill socket 0 first, 8 logical
// cores per socket, wrapping across the configured socket count (indices
// 0..7 → socket 0, 8..15 → socket 1 on a 2-socket machine, then around).
// NewHandle uses it to give each handle a default socket hint;
// Handle.Pin overrides it with ground truth when the caller has any.
func HeuristicSocket(order, sockets int) int {
	if sockets <= 1 || order < 0 {
		return 0
	}
	return (order / heuristicCoresPerSocket) % sockets
}

// PlacementPolicy decides which socket each sub-structure slot is homed on
// when the geometry widens, and whether operations should exploit the homes
// by probing same-socket slots first. Implementations must be pure
// functions of their arguments (they are consulted under the
// reconfiguration lock and from the simulation targets). The two provided
// policies are LocalFirst (the default when placement is enabled) and
// RoundRobin (the pre-placement behaviour, kept for A/B runs).
type PlacementPolicy interface {
	// Name labels the policy in diagnostics ("local-first", "round-robin").
	Name() string
	// Home picks the socket for one new slot: idx is the slot's index in a
	// geometry widening to width slots, counts[s] is how many slots are
	// already homed on socket s (slots placed earlier in the same widening
	// included), and requester is the socket whose contention asked for
	// the growth, or -1 when unknown. The result must be in
	// [0, len(counts)); out-of-range results are clamped to socket 0.
	Home(idx, width int, counts []int, requester int) int
	// LocalProbeOrder reports whether handles should visit slots homed on
	// their own socket before remote ones (see Handle.Pin).
	LocalProbeOrder() bool
}

// RoundRobin returns the placement policy that interleaves slot homes
// across sockets by index and leaves the probe order socket-blind — the
// structure behaves exactly as it did before placement existed, which is
// what makes it the A/B baseline for LocalFirst.
func RoundRobin() PlacementPolicy { return roundRobin{} }

type roundRobin struct{}

func (roundRobin) Name() string { return "round-robin" }
func (roundRobin) Home(idx, width int, counts []int, requester int) int {
	return idx % len(counts)
}
func (roundRobin) LocalProbeOrder() bool { return false }

// LocalFirst returns the default placement policy: a new slot is homed on
// the requesting socket until that socket holds its fair share
// (⌈width/sockets⌉ slots), then spills to the least-loaded socket (lowest
// id on ties); with no requester attribution it degenerates to a balanced
// interleave. Handles probe same-socket slots first, so the window's hot
// slots stay intra-socket while the window discipline is untouched.
func LocalFirst() PlacementPolicy { return localFirst{} }

type localFirst struct{}

func (localFirst) Name() string { return "local-first" }
func (localFirst) Home(idx, width int, counts []int, requester int) int {
	sockets := len(counts)
	if requester >= 0 && requester < sockets {
		quota := (width + sockets - 1) / sockets
		if counts[requester] < quota {
			return requester
		}
	}
	best := 0
	for s := 1; s < sockets; s++ {
		if counts[s] < counts[best] {
			best = s
		}
	}
	return best
}
func (localFirst) LocalProbeOrder() bool { return true }

// PlaceSlots extends a slot→socket home map to width slots using policy on
// a machine with the given socket count: existing homes (clamped into
// range) are preserved, new slots are assigned one by one through
// policy.Home with the requester attribution. It is the single home-
// assignment routine shared by the stack, the queue and the simulation
// targets, so the same policy produces the same layout everywhere. The
// returned slice is freshly allocated; homes may be nil.
func PlaceSlots(policy PlacementPolicy, homes []int, width, requester, sockets int) []int {
	if sockets < 1 {
		sockets = 1
	}
	if policy == nil {
		policy = RoundRobin()
	}
	out := make([]int, width)
	counts := make([]int, sockets)
	n := len(homes)
	if n > width {
		n = width
	}
	for i := 0; i < n; i++ {
		s := homes[i]
		if s < 0 || s >= sockets {
			s = 0
		}
		out[i] = s
		counts[s]++
	}
	for i := n; i < width; i++ {
		s := policy.Home(i, width, counts, requester)
		if s < 0 || s >= sockets {
			s = 0
		}
		out[i] = s
		counts[s]++
	}
	return out
}

// ShrinkSurvivors picks which keep slots of a width-shrinking geometry
// survive, returning their indices in ascending order. Socket-blind
// policies (and shrinks with no requester attribution) keep the leading
// slots — the pre-placement behaviour. Under a local-probe policy with a
// known requester the shrink prefers dropping *remote* slots (homes other
// than the requester's socket, scanning from the tail), so the capacity
// that remains is the capacity the pressured socket can reach cheaply;
// only when every remote slot is gone does it drop local ones.
func ShrinkSurvivors(policy PlacementPolicy, homes []int, keep, requester int) []int {
	width := len(homes)
	if keep > width {
		keep = width
	}
	out := make([]int, 0, keep)
	if policy == nil || !policy.LocalProbeOrder() || requester < 0 {
		for i := 0; i < keep; i++ {
			out = append(out, i)
		}
		return out
	}
	drop := make([]bool, width)
	need := width - keep
	for i := width - 1; i >= 0 && need > 0; i-- {
		if homes[i] != requester {
			drop[i] = true
			need--
		}
	}
	for i := width - 1; i >= 0 && need > 0; i-- {
		if !drop[i] {
			drop[i] = true
			need--
		}
	}
	for i, d := range drop {
		if !d {
			out = append(out, i)
		}
	}
	return out
}

// ShrinkPlan bundles ShrinkSurvivors with the homes the surviving slots
// keep: surv[i] is the i-th surviving slot's index in the old geometry and
// survHomes[i] its socket. The stack, the queue and cmd/adapttune's sim
// targets all shrink through this one helper, so a change to survivor
// selection cannot make them diverge.
func ShrinkPlan(policy PlacementPolicy, homes []int, keep, requester int) (surv, survHomes []int) {
	surv = ShrinkSurvivors(policy, homes, keep, requester)
	survHomes = make([]int, 0, len(surv))
	for _, i := range surv {
		survHomes = append(survHomes, homes[i])
	}
	return surv, survHomes
}

// buildProbePlan constructs one handle's probe permutation over a homed
// slot array: the handle's same-socket slots first in index order
// (decorrelated across handles by their anchors), then the remote slots
// rotated by rot — the rotation keeps same-socket handles that exhaust
// their local slots from all entering the spill section at the same slot
// and convoying on one line. It returns the permutation, its slot →
// position inverse (so a search can resume coverage from its locality
// anchor), and the local-slot count. Handles cache one plan per geometry.
func buildProbePlan(homes []int, socket, rot int) (ord, pos []int, localN int) {
	width := len(homes)
	ord = make([]int, 0, width)
	for i, h := range homes {
		if h == socket {
			ord = append(ord, i)
		}
	}
	localN = len(ord)
	if m := width - localN; m > 0 {
		remote := make([]int, 0, m)
		for i, h := range homes {
			if h != socket {
				remote = append(remote, i)
			}
		}
		rot %= m
		if rot < 0 {
			rot += m
		}
		ord = append(ord, remote[rot:]...)
		ord = append(ord, remote[:rot]...)
	}
	pos = make([]int, width)
	for at, slot := range ord {
		pos[slot] = at
	}
	return ord, pos, localN
}

// hopIdx picks a random slot for an exploratory or contention hop:
// uniform over all slots when placement-blind (ord == nil), uniform over
// the handle's same-socket slots under local probe order (falling back to
// any slot for a socket that homes none).
func hopIdx(rng *xrand.State, width int, ord []int, localN int) int {
	if ord == nil || localN == 0 {
		return rng.Intn(width)
	}
	return ord[rng.Intn(localN)]
}

// PressureSocket returns the socket with the most attributed CAS failures
// in this stats sample, or -1 when none were recorded — the widening
// requester the adaptive controller reports to ReconfigureOnSocket.
func (s OpStats) PressureSocket() int {
	best, bestN := -1, uint64(0)
	for i, n := range s.SocketCAS {
		if n > bestN {
			best, bestN = i, n
		}
	}
	return best
}
