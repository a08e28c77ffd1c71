package harness

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/quality"
	"stack2d/internal/relax"
	"stack2d/internal/seqspec"
	"stack2d/internal/xrand"
)

// Phase is one segment of a phase-shifting workload: for Duration, Workers
// goroutines (of the run's worker pool) issue operations with the given
// push ratio and think time. Varying Workers and ThinkSpin across phases
// moves the offered contention up and down — the traffic shape static
// window tuning cannot serve and internal/adapt's controller is built for.
type Phase struct {
	Name      string
	Duration  time.Duration
	Workers   int     // active workers this phase; must be <= PhasedWorkload.MaxWorkers
	PushRatio float64 // probability an operation is a Push
	ThinkSpin int     // ALU spin iterations between operations (dilutes contention)
}

// PhasedWorkload configures a phase-shifting run.
type PhasedWorkload struct {
	// MaxWorkers is the worker pool size; phases activate a prefix of it.
	MaxWorkers int
	// Prefill is the initial population, as in Workload.
	Prefill int
	// Seed makes runs reproducible.
	Seed uint64
	// Quality attaches the error-distance oracle of the structure's order
	// (LIFO for stacks, FIFO for queues). The oracle's mutex dampens
	// contention, so compare quality runs only with other quality runs.
	Quality bool
	// Record collects the run's full interval history (every operation
	// timestamped on a shared logical clock at invocation and response)
	// into PhasedResult.History, the input of seqspec's k-distance and
	// sanity checkers. Recording costs two atomic clock ticks and one
	// append per operation — cheaper than the Quality oracle, but like it,
	// compare recorded runs only with other recorded runs.
	Record bool
}

// Validate reports whether the workload and phase list are runnable.
func (w PhasedWorkload) Validate(phases []Phase) error {
	if w.MaxWorkers < 1 {
		return fmt.Errorf("harness: MaxWorkers must be >= 1, got %d", w.MaxWorkers)
	}
	if w.Prefill < 0 {
		return fmt.Errorf("harness: Prefill must be >= 0, got %d", w.Prefill)
	}
	if len(phases) == 0 {
		return fmt.Errorf("harness: no phases")
	}
	for i, p := range phases {
		switch {
		case p.Duration <= 0:
			return fmt.Errorf("harness: phase %d (%s) Duration must be positive", i, p.Name)
		case p.Workers < 1 || p.Workers > w.MaxWorkers:
			return fmt.Errorf("harness: phase %d (%s) Workers %d outside [1, %d]", i, p.Name, p.Workers, w.MaxWorkers)
		case p.PushRatio < 0 || p.PushRatio > 1:
			return fmt.Errorf("harness: phase %d (%s) PushRatio %g outside [0,1]", i, p.Name, p.PushRatio)
		case p.ThinkSpin < 0:
			return fmt.Errorf("harness: phase %d (%s) ThinkSpin must be >= 0", i, p.Name)
		}
	}
	return nil
}

// PhaseResult summarises one phase of a phased run.
type PhaseResult struct {
	Phase      Phase
	Ops        uint64
	Pushes     uint64
	Pops       uint64
	EmptyPops  uint64
	Elapsed    time.Duration
	Throughput float64 // ops/second over the phase

	// MeanDistance is the mean error distance of pops measured during
	// this phase; MaxDistanceSoFar is the cumulative maximum at phase end
	// (the oracle's max is monotone). Zero unless Quality was enabled.
	MeanDistance     float64
	MaxDistanceSoFar int
}

// PhasedResult is the outcome of a whole phased run.
type PhasedResult struct {
	Phases   []PhaseResult
	TotalOps uint64
	// Quality is the whole-run error-distance distribution (zero unless
	// measured); Quality.Max is the run's realised worst-case distance,
	// the number to compare against a configured k ceiling.
	Quality quality.Stats
	// History is the recorded interval history (nil unless
	// PhasedWorkload.Record was set): prefill pushes plus every worker
	// operation, in per-worker shards. Feed it to seqspec.KStackChecker /
	// seqspec.KFIFOChecker (or CheckIntervalSanity) to distance-check the
	// run — including runs spanning live reconfigurations, where the
	// structure's ShrinkDisplacementBound is the documented allowance.
	History []seqspec.IntervalOp
}

// phaseCtl is the coordinator→worker broadcast for the current phase; a
// negative index tells workers to exit.
type phaseCtl struct {
	idx       int
	workers   int
	pushRatio float64
	think     int
}

// phasedOracle is the error-distance instrument of a run: the LIFO
// oracle for stacks, the FIFO oracle for queues (both in internal/quality),
// picked by runPhased from the structure's order.
type phasedOracle interface {
	Insert(label uint64)
	Remove(label uint64) int
	Snapshot() quality.Stats
}

// RunPhased drives a phase-shifting workload against a 2D-Stack. The
// caller owns any controller attached to the stack (start it before, stop
// it after); RunPhased itself only generates load and measures, so the
// same function serves both the static baseline and the adaptive run in
// cmd/adapttune. Every worker flushes its handle's counters on exit, so
// s.StatsSnapshot() after the run is exact: a one-phase RunPhased plus
// StatsSnapshot is the instrumented run (probes, CAS failures and window
// moves per operation) that cmd/relaxtune reports.
func RunPhased(s *core.Stack[uint64], phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	return runPhased(func(id int) (Worker, func()) {
		h := s.NewHandle()
		if id >= 0 {
			// Pin each worker's handle by its index, mirroring the
			// simulated machine's fill-socket-0-first core assignment
			// (DESIGN.md §7); inert while the stack has no placement.
			h.Pin(s.PlacementSocketFor(id))
		}
		return h, h.FlushStats
	}, relax.OrderLIFO, phases, w, 0)
}

// runPhased is the package's one worker loop: every entry point only says
// how to build a worker and which order its structure keeps. mkWorker
// builds one worker plus its end-of-run flush (so a sampling controller
// sees final totals); it is called on the worker's own goroutine, with id
// -1 for the prefill worker.
//
// ops > 0 makes an op-counted run (Workload.Ops): its one phase ends when
// every worker has performed exactly ops operations, and its Duration is
// not read. Run, the only caller that sets it, has validated its Workload.
//
// order alone picks the quality oracle and its record point:
//   - FIFO: quality.FIFOOracle, an enqueue recorded at invocation. The
//     FIFO oracle inserts at the tail, so a pusher preempted between the
//     structure operation and a late insert would let its item be dequeued
//     first, after which the spin-waiting Remove scores it against the
//     entire resident population — a measurement artifact of queue length
//     magnitude, not a property of the structure. Recording at invocation
//     keeps the oracle order a valid linearisation candidate (no dequeue of
//     v can precede v's record) at the cost of at most one position of
//     slack per in-flight operation — the same convention as the seqspec
//     trace tests.
//   - LIFO, and the pools, which the paper scores by LIFO distance too:
//     quality.Oracle, a push recorded after it completes (the paper's §4
//     methodology; the LIFO oracle inserts at the head, so a late insert
//     can only shrink a distance).
func runPhased(mkWorker func(id int) (Worker, func()), order relax.Ordering, phases []Phase, w PhasedWorkload, ops int) (PhasedResult, error) {
	var out PhasedResult
	if ops == 0 {
		if err := w.Validate(phases); err != nil {
			return out, err
		}
	}

	var oracle phasedOracle
	insertFirst := order == relax.OrderFIFO
	if w.Quality {
		if insertFirst {
			oracle = &quality.FIFOOracle{}
		} else {
			oracle = &quality.Oracle{}
		}
	}

	var rec *seqspec.Recorder
	if w.Record {
		// Shard layout: one per worker, the extra shard (index MaxWorkers)
		// for the prefill prologue.
		rec = seqspec.NewRecorder(w.MaxWorkers)
	}

	pre, preFlush := mkWorker(-1) // prefill worker: no pinned identity
	for i := 0; i < w.Prefill; i++ {
		label := uint64(i) + 1
		if rec != nil {
			rec.PushLabeled(w.MaxWorkers, label, func() { pre.Push(label) })
		} else {
			pre.Push(label)
		}
		if oracle != nil {
			oracle.Insert(label)
		}
	}
	preFlush()

	type counters struct {
		pushes, pops, empty uint64
	}
	// perW[worker][phase]. A worker counts in goroutine-local variables and
	// writes its row only when it leaves a phase, so no counter shares a
	// cache line with another worker's while the run is hot; the
	// coordinator reads the rows after every worker has exited.
	perW := make([][]counters, w.MaxWorkers)
	for i := range perW {
		perW[i] = make([]counters, len(phases))
	}

	var ctl atomic.Pointer[phaseCtl]
	ctl.Store(&phaseCtl{idx: 0, workers: phases[0].Workers, pushRatio: phases[0].PushRatio, think: phases[0].ThinkSpin})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < w.MaxWorkers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker, flush := mkWorker(id)
			rng := xrand.New(w.Seed + uint64(id)*0x9e3779b97f4a7c15 + 1)
			// Unique labels: worker id in the high bits, counter below;
			// offset past the prefill range.
			label := uint64(id+1)<<40 | uint64(w.Prefill)
			var c counters
			cur := 0
			var sink uint64
			<-start
			for n := 0; ops == 0 || n < ops; n++ {
				p := ctl.Load()
				if p.idx != cur {
					if p.idx < 0 {
						break
					}
					perW[id][cur], c, cur = c, counters{}, p.idx
				}
				if id >= p.workers {
					// Benched this phase; stay parked until the shape changes.
					time.Sleep(50 * time.Microsecond)
					continue
				}
				if rng.Float64() < p.pushRatio {
					label++
					if oracle != nil && insertFirst {
						oracle.Insert(label)
					}
					if rec != nil {
						l := label
						rec.PushLabeled(id, l, func() { worker.Push(l) })
					} else {
						worker.Push(label)
					}
					if oracle != nil && !insertFirst {
						oracle.Insert(label)
					}
					c.pushes++
				} else {
					var v uint64
					var ok bool
					if rec != nil {
						v, ok = rec.Pop(id, worker.Pop)
					} else {
						v, ok = worker.Pop()
					}
					if ok {
						if oracle != nil {
							oracle.Remove(v)
						}
						c.pops++
					} else {
						c.empty++
					}
				}
				if p.think > 0 {
					sink = think(p.think, sink)
				}
			}
			perW[id][cur] = c
			_ = sink
			flush()
		}(i)
	}

	type boundary struct {
		elapsed time.Duration
		q       quality.Stats
	}
	marks := make([]boundary, 0, len(phases))
	close(start)
	for i, p := range phases {
		if i > 0 {
			ctl.Store(&phaseCtl{idx: i, workers: p.Workers, pushRatio: p.PushRatio, think: p.ThinkSpin})
		}
		began := time.Now()
		if ops > 0 {
			wg.Wait()
		} else {
			time.Sleep(p.Duration)
		}
		var q quality.Stats
		if oracle != nil {
			q = oracle.Snapshot()
		}
		marks = append(marks, boundary{elapsed: time.Since(began), q: q})
	}
	ctl.Store(&phaseCtl{idx: -1})
	wg.Wait()

	var prevQ quality.Stats
	for i, p := range phases {
		res := PhaseResult{Phase: p, Elapsed: marks[i].elapsed}
		for wi := range perW {
			c := perW[wi][i]
			res.Pushes += c.pushes
			res.Pops += c.pops
			res.EmptyPops += c.empty
		}
		res.Ops = res.Pushes + res.Pops + res.EmptyPops
		if sec := res.Elapsed.Seconds(); sec > 0 {
			res.Throughput = float64(res.Ops) / sec
		}
		if oracle != nil {
			q := marks[i].q
			if dc := q.Count - prevQ.Count; dc > 0 {
				res.MeanDistance = (q.Sum - prevQ.Sum) / float64(dc)
			}
			res.MaxDistanceSoFar = q.Max
			prevQ = q
		}
		out.TotalOps += res.Ops
		out.Phases = append(out.Phases, res)
	}
	if oracle != nil {
		out.Quality = oracle.Snapshot()
	}
	if rec != nil {
		out.History = rec.History()
	}
	return out, nil
}

// ContentionPhases builds the canonical low→high→low shape used by
// cmd/adapttune and the adaptation experiments: a lightly loaded phase (a
// quarter of the workers, think time diluting contention), a saturating
// phase (all workers, no think time), then light load again. maxWorkers
// must be >= 1; each phase lasts d.
func ContentionPhases(maxWorkers int, d time.Duration) []Phase {
	low := maxWorkers / 4
	if low < 1 {
		low = 1
	}
	return []Phase{
		{Name: "low-1", Duration: d, Workers: low, PushRatio: 0.5, ThinkSpin: 256},
		{Name: "high", Duration: d, Workers: maxWorkers, PushRatio: 0.5, ThinkSpin: 0},
		{Name: "low-2", Duration: d, Workers: low, PushRatio: 0.5, ThinkSpin: 256},
	}
}
