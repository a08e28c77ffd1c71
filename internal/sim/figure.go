package sim

import (
	"fmt"

	"stack2d/internal/core"
	"stack2d/internal/relax"
)

// AlgoName selects a simulated algorithm in Figure2Sim.
type AlgoName string

// Simulated algorithms.
const (
	SimTreiber     AlgoName = "treiber"
	SimRandom      AlgoName = "random"
	SimTwoD        AlgoName = "2D-stack"
	SimElimination AlgoName = "elimination"
)

// Algos returns the simulated algorithm set in display order.
func Algos() []AlgoName {
	return []AlgoName{SimTwoD, SimRandom, SimElimination, SimTreiber}
}

// Throughput runs one simulated experiment: p threads (pinned to cores 0,
// 1, ... — filling socket 0 first, as the paper pins) executing the named
// algorithm for `horizon` cycles, prefilled so pops rarely hit empty.
// It returns completed operations per 1000 cycles (higher is better).
func Throughput(machine Machine, alg AlgoName, p int, horizon int64) (float64, error) {
	if p < 1 || p > machine.Cores() {
		return 0, fmt.Errorf("sim: p=%d outside 1..%d", p, machine.Cores())
	}
	if horizon <= 0 {
		return 0, fmt.Errorf("sim: horizon must be positive")
	}
	const seed = 0x2d57ac
	if alg == SimTwoD {
		// The paper's operating point, width 4P and depth = shift = 64,
		// from the prefilled start.
		st, err := TwoDSegment(machine, core.DefaultConfig(p), p, horizon, seed, nil, false)
		return float64(st.Ops()) * 1000 / float64(horizon), err
	}
	s, err := New(machine)
	if err != nil {
		return 0, err
	}
	var body func(*T)
	switch alg {
	case SimTreiber:
		top := s.NewWord(prefillSim)
		body = TreiberBody(top, seed)
	case SimRandom:
		// Figure 2's random stack: relax.Figure2FixedWidth sub-stacks at
		// every P, as the wall-clock sweep builds it.
		subs := make([]*Word, relax.Figure2FixedWidth)
		for i := range subs {
			subs[i] = s.NewWord(prefillSim)
		}
		body = RandomMultiBody(subs, seed)
	case SimElimination:
		top := s.NewWord(prefillSim)
		slots := make([]*Word, p)
		for i := range slots {
			slots[i] = s.NewWord(0)
		}
		body = EliminationBody(top, slots, seed)
	default:
		return 0, fmt.Errorf("sim: unknown algorithm %q", alg)
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
