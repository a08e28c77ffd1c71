package sim

import (
	"stack2d/internal/relax"
	"stack2d/internal/xrand"
)

// Additional simulated algorithms for the Figure 1 (relaxation sweep)
// reproduction: k-robin and k-segment; the 2D-Stack runs as a stack
// segment (window.go) at the geometry its k maps to.

// RobinMultiBody models the k-robin distributed stack: each thread cycles
// deterministically through the sub-stack lines and — the behaviour the
// paper contrasts with the 2D-Stack — *retries the same line* on CAS
// failure instead of hopping away.
func RobinMultiBody(subs []*Word, seed uint64) func(*T) {
	return func(t *T) {
		rng := xrand.New(seed + uint64(t.Core())*0x9e3779b97f4a7c15)
		width := len(subs)
		pos := rng.Intn(width)
		for t.Running() {
			push := rng.Bool()
			pos++
			if pos == width {
				pos = 0
			}
			for t.Running() {
				v := t.Read(subs[pos])
				if !push && v == 0 {
					// Empty sub-stack: advance to the next (round robin).
					pos++
					if pos == width {
						pos = 0
					}
					continue
				}
				delta := int64(1)
				if !push {
					delta = -1
				}
				if t.CAS(subs[pos], v, v+delta) {
					break
				}
				// k-robin keeps retrying the same sub-stack.
			}
			t.OpDone()
		}
	}
}

// KSegmentBody models the k-segment stack: all operations target the top
// segment's slot array. Slots are words holding 0 (empty) or 1 (occupied);
// a push CASes a random empty slot to 1, a pop a random occupied slot to
// 0. Segment replacement is modelled by a shared top-pointer word that
// every operation reads and that is CASed whenever the segment is found
// full (push) or empty (pop) — capturing the maintenance cost the paper
// blames for k-segment's decline at large k.
func KSegmentBody(slots []*Word, top *Word, seed uint64) func(*T) {
	return func(t *T) {
		rng := xrand.New(seed + uint64(t.Core())*0x9e3779b97f4a7c15)
		size := len(slots)
		for t.Running() {
			push := rng.Bool()
			for t.Running() {
				t.Read(top) // every op validates the top segment pointer
				start := rng.Intn(size)
				acted := false
				for probe := 0; probe < size && t.Running(); probe++ {
					i := start + probe
					if i >= size {
						i -= size
					}
					v := t.Read(slots[i])
					if push && v == 0 {
						if t.CAS(slots[i], 0, 1) {
							acted = true
							break
						}
					} else if !push && v == 1 {
						if t.CAS(slots[i], 1, 0) {
							acted = true
							break
						}
					}
				}
				if acted {
					break
				}
				// Segment full/empty: pay the segment-replacement CAS on
				// the shared top pointer, then retry.
				v := t.Read(top)
				t.CAS(top, v, v+1)
			}
			t.OpDone()
		}
	}
}

// Figure1Throughput runs the simulated relaxation sweep point: algorithm
// alg configured for relaxation budget k at p threads by relax's k
// mappings, the ones the wall-clock Figure 1 builds through
// relax.NewBackendForK (the simulated k-segment caps its slot array at
// 1<<14).
func Figure1Throughput(machine Machine, alg AlgoName, k int64, p int, horizon int64) (float64, error) {
	if p < 1 || p > machine.Cores() {
		return 0, errRange("p", p)
	}
	if horizon <= 0 {
		return 0, errRange("horizon", int(horizon))
	}
	const seed = 0x2d57ac
	if alg == SimTwoD {
		cfg := relax.TwoDConfigForK(k, p)
		st, err := stackSegment(machine, cfg, p, horizon, seed, nil, false,
			start{prefillSim, prefillSim + cfg.Depth/2 + 1})
		return float64(st.Ops()) * 1000 / float64(horizon), err
	}
	s, err := New(machine)
	if err != nil {
		return 0, err
	}
	var body func(*T)
	switch alg {
	case SimKRobin:
		subs := make([]*Word, relax.KRobinConfigForK(k, p).Width)
		for i := range subs {
			subs[i] = s.NewWord(prefillSim)
		}
		body = RobinMultiBody(subs, seed)
	case SimKSegment:
		size := min(relax.KSegmentConfigForK(k).SegmentSize, 1<<14) // cap simulated slot arrays
		slots := make([]*Word, size)
		// Half-occupied segment: both pushes and pops find targets.
		for i := range slots {
			slots[i] = s.NewWord(int64(i % 2))
		}
		top := s.NewWord(0)
		body = KSegmentBody(slots, top, seed)
	default:
		return 0, errAlgo(alg)
	}
	for core := 0; core < p; core++ {
		s.Go(core, body)
	}
	ops := s.Run(horizon)
	var total int64
	for _, n := range ops {
		total += n
	}
	return float64(total) * 1000 / float64(horizon), nil
}

// Additional simulated algorithm names for Figure 1.
const (
	SimKRobin   AlgoName = "k-robin"
	SimKSegment AlgoName = "k-segment"
)

// Figure1Algos returns the k-bounded simulated set, mirroring the paper.
func Figure1Algos() []AlgoName {
	return []AlgoName{SimTwoD, SimKRobin, SimKSegment}
}

type rangeError struct {
	name string
	v    int
}

func (e rangeError) Error() string {
	return "sim: " + e.name + " out of range"
}

func errRange(name string, v int) error { return rangeError{name, v} }

type algoError struct{ alg AlgoName }

func (e algoError) Error() string { return "sim: unknown algorithm " + string(e.alg) }

func errAlgo(alg AlgoName) error { return algoError{alg} }
