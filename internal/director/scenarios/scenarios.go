package scenarios

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/director"
	"stack2d/internal/engine"
	"stack2d/internal/quality"
	"stack2d/internal/relax"
	"stack2d/internal/seqspec"
	"stack2d/internal/twodqueue"
)

// oraclePatience bounds the quality oracles' insert wait inside directed
// runs. Under the director the oracle calls run inside op closures, between
// gates, so a Remove can never actually race its Insert — a miss here is a
// real conservation bug and should fail fast.
const oraclePatience = 2 * time.Second

// Outcome is the complete, deterministic result of one scenario run: the
// recorded interval history and schedule (byte-identical across same-seed
// runs — the determinism regression test pins this), the checker verdict
// against the scenario's semantics budget, and the realised rank-error
// distribution from the quality oracle.
type Outcome struct {
	Name     string
	Strategy string
	Seed     uint64
	Steps    int

	// K and Allowance are the budget the history was checked against;
	// FIFO selects which checker family measured it.
	K         int64
	Allowance int64
	FIFO      bool
	Report    seqspec.KDistanceReport

	History  []seqspec.IntervalOp
	Schedule []director.Choice
	// TaskNames maps schedule task ids to registration names, for the
	// shrinker's narration (director.FormatSchedule).
	TaskNames []string

	// Quality is the realised error-distance distribution (paper §4
	// metric: distance from the strict order at removal time).
	Quality quality.Stats

	// Coverage is the number of distinct coverage states the run (or, for
	// the guided-frontier scenario, the whole search) visited; zero for
	// scenarios that don't measure coverage.
	Coverage int
}

// Fingerprint hashes the recorded history and schedule; two runs with the
// same fingerprint made byte-identical recordings.
func (o *Outcome) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, op := range o.History {
		fmt.Fprintf(h, "%d,%d,%t,%d,%d;", op.Kind, op.Value, op.Empty, op.Begin, op.End)
	}
	for _, c := range o.Schedule {
		fmt.Fprintf(h, "%d@%d;", c.Task, c.Point)
	}
	return h.Sum64()
}

// Scenario is one named adversarial run. Run must be a deterministic
// function of seed. On a checker failure the directed scenarios return the
// recorded Outcome ALONGSIDE the error, so the failing schedule is
// available for shrinking.
type Scenario struct {
	Name  string
	About string
	Run   func(seed uint64) (*Outcome, error)
	// Directed replays the scenario's workload under an explicit strategy
	// — the shrinker's replay vehicle (director.NewFollow over a candidate
	// schedule) and the guided search's per-run body. Nil for the
	// sequential trace-replay scenarios, which have no directed schedule.
	Directed func(seed uint64, strat director.Strategy) (*Outcome, error)
}

// All returns the scenario pack in its canonical order.
func All() []Scenario {
	return []Scenario{
		{
			Name:  NameTheoremOneReplay,
			About: "explorer's minimal Theorem-1 counterexample on the real stack",
			Run:   runTheoremOneReplay,
		},
		{
			Name:  NameQueueWitnessReplay,
			About: "queue explorer's max-distance witness on the real queue",
			Run:   runQueueWitnessReplay,
		},
		{
			Name:     NameShrinkDuringDrain,
			About:    "width shrink racing directed poppers",
			Run:      seededRandom(directedShrinkDuringDrain(NameShrinkDuringDrain, 0)),
			Directed: directedShrinkDuringDrain(NameShrinkDuringDrain, 0),
		},
		{
			Name:     NameSwapDuringStorm,
			About:    "backend hot-swap inside a directed push/pop storm",
			Run:      seededRandom(directedSwapDuringStorm(NameSwapDuringStorm, 0)),
			Directed: directedSwapDuringStorm(NameSwapDuringStorm, 0),
		},
		{
			Name:     NameSocketSkew,
			About:    "all handles pinned to one socket of a local-first placement, PCT schedule",
			Run:      runSocketSkew,
			Directed: directedSocketSkew,
		},
		{
			Name:     NameGuidedFrontier,
			About:    "coverage-guided schedule search over the frontier workload, checked every run",
			Run:      runGuidedFrontier,
			Directed: directedFrontier,
		},
		{
			Name:     NameBufferedShrinkDuringDrain,
			About:    "shrink-during-drain with op-buffered handles: pending batches cross the geometry epoch",
			Run:      seededRandom(directedShrinkDuringDrain(NameBufferedShrinkDuringDrain, bufferedScenarioCap)),
			Directed: directedShrinkDuringDrain(NameBufferedShrinkDuringDrain, bufferedScenarioCap),
		},
		{
			Name:     NameBufferedSwapDuringStorm,
			About:    "backend hot-swap with engine-buffered handles: pending pushes cross the swap",
			Run:      seededRandom(directedSwapDuringStorm(NameBufferedSwapDuringStorm, bufferedScenarioCap)),
			Directed: directedSwapDuringStorm(NameBufferedSwapDuringStorm, bufferedScenarioCap),
		},
	}
}

// Sweep runs the full pack with the given base seed and returns the
// outcomes in pack order. Each scenario gets a distinct derived seed so the
// pack explores unrelated schedules while staying a pure function of seed.
func Sweep(seed uint64) ([]*Outcome, error) {
	var outs []*Outcome
	for i, sc := range All() {
		o, err := sc.Run(seed + uint64(i)*0x9e3779b97f4a7c15)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		outs = append(outs, o)
	}
	return outs, nil
}

// FormatErrorTable renders the outcomes as the markdown realised-error
// table EXPERIMENTS.md documents: per scenario, the checked budget and the
// realised distance distribution.
func FormatErrorTable(outs []*Outcome) string {
	var b strings.Builder
	b.WriteString("| scenario | strategy | seed | pops | k | allowance | max strain | realised max | mean error |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|---|\n")
	for _, o := range outs {
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %d | %d | %d | %d | %.3f |\n",
			o.Name, o.Strategy, o.Seed, o.Report.Pops, o.K, o.Allowance,
			o.Report.MaxStrain, o.Quality.Max, o.Quality.Mean())
	}
	return b.String()
}

// --- trace replays -----------------------------------------------------------

// sequentialQuality replays a zero-slack sequential history through the
// rank-error oracle of the right ordering.
func sequentialQuality(hist []seqspec.IntervalOp, fifo bool) (quality.Stats, error) {
	var o interface {
		Insert(label uint64)
		RemoveWithin(label uint64, patience time.Duration) (int, error)
		Snapshot() quality.Stats
	} = &quality.Oracle{}
	if fifo {
		o = &quality.FIFOOracle{}
	}
	for _, op := range hist {
		switch {
		case op.Kind == seqspec.OpPush:
			o.Insert(op.Value)
		case op.Empty:
		default:
			if _, err := o.RemoveWithin(op.Value, oraclePatience); err != nil {
				return quality.Stats{}, err
			}
		}
	}
	return o.Snapshot(), nil
}

func runTheoremOneReplay(seed uint64) (*Outcome, error) {
	res, err := seqspec.ExploreStack(seqspec.ExploreConfig{
		Width: 2, Depth: 4, Shift: 1, MaxOps: 18, Bound: 6,
	})
	if err != nil {
		return nil, err
	}
	if res.Counterexample == nil {
		return nil, fmt.Errorf("explorer no longer finds the Theorem-1 counterexample")
	}
	cfg := core.Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0}
	hist, err := director.ReplayStackTrace(cfg, res.Counterexample)
	if err != nil {
		return nil, err
	}
	// The point of the scenario: the retired transcribed constant is
	// refuted by the real structure, the corrected bound holds exactly.
	if _, err := (seqspec.KStackChecker{K: 6}).Check(hist); err == nil {
		return nil, fmt.Errorf("real stack respects the retired k=6; counterexample no longer bites")
	}
	rep, err := (seqspec.KStackChecker{K: cfg.K()}).Check(hist)
	if err != nil {
		return nil, fmt.Errorf("corrected bound k=%d violated: %w", cfg.K(), err)
	}
	if rep.MaxDistance != res.MaxDistance {
		return nil, fmt.Errorf("real stack realised distance %d, model promised %d", rep.MaxDistance, res.MaxDistance)
	}
	q, err := sequentialQuality(hist, false)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Name: NameTheoremOneReplay, Strategy: "trace-replay", Seed: seed,
		K: cfg.K(), Report: rep, History: hist, Quality: q,
	}, nil
}

func runQueueWitnessReplay(seed uint64) (*Outcome, error) {
	res, err := seqspec.ExploreQueue(seqspec.ExploreConfig{
		Width: 2, Depth: 4, Shift: 1, MaxOps: 14, Bound: -1,
	})
	if err != nil {
		return nil, err
	}
	if res.Witness == nil {
		return nil, fmt.Errorf("queue exploration produced no witness")
	}
	cfg := twodqueue.Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0}
	hist, err := director.ReplayQueueTrace(cfg, res.Witness)
	if err != nil {
		return nil, err
	}
	rep, err := (seqspec.KFIFOChecker{K: int64(res.MaxDistance)}).Check(hist)
	if err != nil {
		return nil, fmt.Errorf("explored maximum %d violated: %w", res.MaxDistance, err)
	}
	if rep.MaxDistance != res.MaxDistance {
		return nil, fmt.Errorf("real queue realised distance %d, model promised %d", rep.MaxDistance, res.MaxDistance)
	}
	q, err := sequentialQuality(hist, true)
	if err != nil {
		return nil, err
	}
	return &Outcome{
		Name: NameQueueWitnessReplay, Strategy: "trace-replay", Seed: seed,
		K: int64(res.MaxDistance), FIFO: true, Report: rep, History: hist, Quality: q,
	}, nil
}

// --- directed concurrent scenarios ------------------------------------------

// pushOp and popOp wrap one operation with its oracle bookkeeping. The
// oracle calls run between gates, so they are atomic under the director and
// the Remove wait can only trip on a genuine conservation bug.
func pushOp(tc *director.Task, push func(uint64), o *quality.Oracle, errs *[]error) {
	label := tc.Label()
	tc.Op(seqspec.OpPush, func() (uint64, bool) {
		push(label)
		o.Insert(label)
		return label, true
	})
}

func popOp(tc *director.Task, pop func() (uint64, bool), o *quality.Oracle, errs *[]error) {
	tc.Op(seqspec.OpPop, func() (uint64, bool) {
		v, ok := pop()
		if ok {
			if _, err := o.RemoveWithin(v, oraclePatience); err != nil {
				*errs = append(*errs, err)
			}
		}
		return v, ok
	})
}

// drainInto appends the post-run sequential drain to the history (fresh
// ticks strictly after the directed phase), keeping conservation checkable.
func drainInto(d *director.Director, pop func() (uint64, bool), o *quality.Oracle, errs *[]error) {
	for {
		v, ok := pop()
		if !ok {
			return
		}
		if _, err := o.RemoveWithin(v, oraclePatience); err != nil {
			*errs = append(*errs, err)
		}
		d.AppendOp(seqspec.OpPop, v, false)
	}
}

// finishStackOutcome builds the outcome of a completed directed run and
// checks it against the budget: k + allowance + bufAllowance, the last
// being seqspec.BufferAllowance for scenarios that drive op-buffered
// handles (zero elsewhere). The outcome's Allowance field carries the
// composed slack, so the error table shows the full budget. On any failure
// the (partial) outcome is returned ALONGSIDE the error — its History and
// Schedule are what the shrinker needs to minimise the failure.
func finishStackOutcome(name, strategy string, seed uint64, d *director.Director, k, allowance, bufAllowance int64, errs []error) (*Outcome, error) {
	hist := d.History()
	out := &Outcome{
		Name: name, Strategy: strategy, Seed: seed, Steps: d.Steps(),
		K: k, Allowance: allowance + bufAllowance,
		History: hist, Schedule: d.Schedule(), TaskNames: d.TaskNames(),
	}
	if len(errs) > 0 {
		return out, errs[0]
	}
	if err := seqspec.CheckIntervalSanity(hist, int(k+allowance+bufAllowance)); err != nil {
		return out, fmt.Errorf("interval sanity: %w", err)
	}
	rep, err := (seqspec.KStackChecker{K: k, Allowance: allowance, BufferAllowance: bufAllowance}).Check(hist)
	out.Report = rep
	if err != nil {
		return out, fmt.Errorf("k-budget: %w", err)
	}
	return out, nil
}

// --- reconfiguration storms --------------------------------------------------
//
// The two storms run plain or op-buffered (DESIGN.md §11) from one body
// each. A buffer cap of 0 gives the plain scenario: SetOpBuffer(0) leaves a
// handle disarmed, so BufferedPush/BufferedPop are exactly Push/Pop,
// FlushOps and the undelivered-prefetch loop do nothing, and
// seqspec.BufferAllowance(·, 0) is 0. A positive cap gives the buffered
// twin, which probes the combined-publication fast path exactly where it
// is weakest: pending pushes crossing a geometry epoch (the op buffer's
// epoch flush) and pending pushes crossing a backend swap (the engine
// buffer's swap-safety claim). Worker-end protocol: FlushOps publishes the
// pending pushes (their history ops were recorded at BufferedPush time —
// that deferral is what the BufferAllowance budget pays for), then the
// undelivered prefetched values are delivered through recorded pops, so
// the drained history stays conservation-complete and the fairness
// premise of the §11 bound (no parking with non-empty buffers) holds at
// every task exit.

// bufferedScenarioCap is the op-buffer threshold the buffered scenarios
// arm. Small on purpose: the workloads are tens of ops per worker, and the
// interesting schedules interleave partial buffers with reconfiguration,
// not full-batch steady state.
const bufferedScenarioCap = 4

// seededRandom is a directed body's Run: the body under the seeded-random
// strategy.
func seededRandom(directed func(uint64, director.Strategy) (*Outcome, error)) func(uint64) (*Outcome, error) {
	return func(seed uint64) (*Outcome, error) { return directed(seed, director.NewSeededRandom(seed)) }
}

// directedShrinkDuringDrain is the scenario name's body: two fillers and
// two drainers, their handles armed with an op buffer of bufCap, race a
// width shrink from 4 slots to 2.
func directedShrinkDuringDrain(name string, bufCap int) func(uint64, director.Strategy) (*Outcome, error) {
	return func(seed uint64, strat director.Strategy) (*Outcome, error) {
		cfgWide := core.Config{Width: 4, Depth: 4, Shift: 1, RandomHops: 0}
		cfgNarrow := core.Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0}
		st, err := core.New[uint64](cfgWide)
		if err != nil {
			return nil, err
		}
		var o quality.Oracle
		var errs []error
		d := director.New(strat)
		for w := 0; w < 2; w++ {
			d.Go("filler", func(tc *director.Task) {
				h := st.NewHandle()
				h.SetOpBuffer(bufCap)
				for i := 0; i < 10; i++ {
					pushOp(tc, h.BufferedPush, &o, &errs)
				}
				h.FlushOps()
			})
		}
		for w := 0; w < 2; w++ {
			d.Go("drainer", func(tc *director.Task) {
				h := st.NewHandle()
				h.SetOpBuffer(bufCap)
				for i := 0; i < 10; i++ {
					popOp(tc, h.BufferedPop, &o, &errs)
				}
				// Deliver what the last refill prefetched but did not
				// serve — each of these pops is satisfied from the
				// prefetch, so the count is exact.
				_, undelivered := h.BufferedCounts()
				for i := 0; i < undelivered; i++ {
					popOp(tc, h.BufferedPop, &o, &errs)
				}
			})
		}
		d.Go("shrink", func(tc *director.Task) {
			// Let the storm develop a little before shrinking.
			for i := 0; i < 6; i++ {
				tc.Yield()
			}
			if err := st.Reconfigure(cfgNarrow); err != nil {
				errs = append(errs, err)
			}
		})
		if err := d.Run(); err != nil {
			return nil, err
		}
		h := st.NewHandle()
		drainInto(d, h.Pop, &o, &errs)
		k := cfgWide.K()
		if n := cfgNarrow.K(); n > k {
			k = n
		}
		out, err := finishStackOutcome(name, strat.Name(), seed, d,
			k, st.ShrinkDisplacementBound(), seqspec.BufferAllowance(4, bufCap), errs)
		if out != nil {
			out.Quality = o.Snapshot()
		}
		return out, err
	}
}

// directedSwapDuringStorm is the scenario name's body: three storm
// workers, their engine handles armed with an op buffer of bufCap, push
// and pop while the switcher swaps from the 2D-Stack to Treiber and back.
func directedSwapDuringStorm(name string, bufCap int) func(uint64, director.Strategy) (*Outcome, error) {
	return func(seed uint64, strat director.Strategy) (*Outcome, error) {
		twod, err := relax.NewTwoDBackend[uint64](core.Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0})
		if err != nil {
			return nil, err
		}
		sw, err := engine.New(twod)
		if err != nil {
			return nil, err
		}
		if err := sw.Register(relax.NewTreiberBackend[uint64]()); err != nil {
			return nil, err
		}
		var o quality.Oracle
		var errs []error
		d := director.New(strat)
		for w := 0; w < 3; w++ {
			d.Go("storm", func(tc *director.Task) {
				h := sw.NewBufferedHandle(bufCap)
				for i := 0; i < 6; i++ {
					pushOp(tc, h.BufferedPush, &o, &errs)
					if i%2 == 1 {
						popOp(tc, h.BufferedPop, &o, &errs)
					}
				}
				h.FlushOps() // the engine buffer holds no prefetch to deliver
			})
		}
		d.Go("swapper", func(tc *director.Task) {
			for i := 0; i < 4; i++ {
				tc.Yield()
			}
			if err := sw.SwapBackend("treiber", "directed storm"); err != nil {
				errs = append(errs, err)
			}
			for i := 0; i < 4; i++ {
				tc.Yield()
			}
			if err := sw.SwapBackend("2D-stack", "directed storm return"); err != nil {
				errs = append(errs, err)
			}
		})
		if err := d.Run(); err != nil {
			return nil, err
		}
		h := sw.NewHandle()
		drainInto(d, h.Pop, &o, &errs)
		out, err := finishStackOutcome(name, strat.Name(), seed, d,
			sw.KBound(), sw.SwapDisplacementBound(), seqspec.BufferAllowance(3, bufCap), errs)
		if out != nil {
			out.Quality = o.Snapshot()
		}
		if err != nil {
			return out, err
		}
		if sw.SwapCount() != 2 {
			return out, fmt.Errorf("expected 2 swaps, got %d", sw.SwapCount())
		}
		return out, nil
	}
}

func runSocketSkew(seed uint64) (*Outcome, error) {
	return directedSocketSkew(seed, director.NewPCT(seed, 4, 400))
}

func directedSocketSkew(seed uint64, strat director.Strategy) (*Outcome, error) {
	cfg := core.Config{Width: 4, Depth: 4, Shift: 1, RandomHops: 0}
	st, err := core.New[uint64](cfg)
	if err != nil {
		return nil, err
	}
	st.SetPlacement(core.LocalFirst(), 2)
	var o quality.Oracle
	var errs []error
	d := director.New(strat)
	for w := 0; w < 4; w++ {
		d.Go("skewed", func(tc *director.Task) {
			h := st.NewHandle()
			h.Pin(0) // every worker claims socket 0: maximal placement skew
			for i := 0; i < 8; i++ {
				pushOp(tc, h.Push, &o, &errs)
				if i%2 == 1 {
					popOp(tc, h.Pop, &o, &errs)
				}
			}
		})
	}
	if err := d.Run(); err != nil {
		return nil, err
	}
	h := st.NewHandle()
	drainInto(d, h.Pop, &o, &errs)
	out, err := finishStackOutcome(NameSocketSkew, strat.Name(), seed, d, cfg.K(), 0, 0, errs)
	if out != nil {
		out.Quality = o.Snapshot()
	}
	return out, err
}

// --- coverage-guided frontier search -----------------------------------------

// FrontierStepBudget is the grant budget the guided-frontier scenario (and
// the CI smoke gate) spends per search — a few dozen directed runs of the
// frontier workload.
const FrontierStepBudget = 2500

// FrontierConfig is the canonical guided-search geometry: the Theorem-1
// counterexample geometry (width 2, depth 4, shift 1 — K() = 9), where the
// sequential explorer proved the interesting schedules live.
func FrontierConfig() core.Config {
	return core.Config{Width: 2, Depth: 4, Shift: 1, RandomHops: 0}
}

// frontierTasks registers the frontier workload: two churn tasks and a
// dedicated popper hammering one small stack — enough push/pop phase
// structure that window positions, populations and interleavings form a
// real state frontier for the coverage signal to chase.
func frontierTasks(d *director.Director, st *core.Stack[uint64], o *quality.Oracle, errs *[]error) {
	for w := 0; w < 2; w++ {
		d.Go("churn", func(tc *director.Task) {
			h := st.NewHandle()
			for i := 0; i < 10; i++ {
				pushOp(tc, h.Push, o, errs)
				if i%3 == 2 {
					popOp(tc, h.Pop, o, errs)
				}
			}
		})
	}
	d.Go("popper", func(tc *director.Task) {
		h := st.NewHandle()
		for i := 0; i < 8; i++ {
			popOp(tc, h.Pop, o, errs)
		}
	})
}

// frontierProbe abstracts the stack state for the coverage signal: window
// ceiling position, population, geometry epoch, and the run's population
// high-water mark. The watermark is the frontier axis proper: record
// depths are exponentially rare under independent random restarts (a
// balanced workload's population is a mean-reverting walk), but a guided
// dive resumes a corpus run at its record instead of re-earning it, so
// every post-divergence state is scored in territory the control arm
// almost never sees.
func frontierProbe(st *core.Stack[uint64]) func() uint64 {
	high := 0
	return func() uint64 {
		if n := st.Len(); n > high {
			high = n
		}
		return uint64(high)<<40 ^ uint64(st.Global())<<20 ^ uint64(st.Len())<<4 ^ st.Epoch()&0xf
	}
}

// FrontierDirected runs one directed frontier run on cfg under strat,
// checked at cfg.K(): the guided search's run body, the shrinker's replay
// vehicle (pass director.NewFollow over a candidate schedule), and
// cmd/schedhunt's probe. On a budget violation the recorded Outcome is
// returned alongside the error.
func FrontierDirected(cfg core.Config, seed uint64, strat director.Strategy) (*Outcome, error) {
	st, err := core.New[uint64](cfg)
	if err != nil {
		return nil, err
	}
	var o quality.Oracle
	var errs []error
	d := director.New(strat)
	frontierTasks(d, st, &o, &errs)
	if err := d.Run(); err != nil {
		return nil, err
	}
	h := st.NewHandle()
	drainInto(d, h.Pop, &o, &errs)
	out, err := finishStackOutcome(NameGuidedFrontier, strat.Name(), seed, d, cfg.K(), 0, 0, errs)
	if out != nil {
		out.Quality = o.Snapshot()
	}
	return out, err
}

func directedFrontier(seed uint64, strat director.Strategy) (*Outcome, error) {
	return FrontierDirected(FrontierConfig(), seed, strat)
}

// FrontierBuilder adapts the frontier workload to the guided search: every
// run gets a fresh stack and oracle, the coverage probe above, and a finish
// hook that drains, checks the run at cfg.K() and deposits the run's
// Outcome into sink (so the search's caller can report the last — or the
// failing — run).
func FrontierBuilder(cfg core.Config, seed uint64, sink **Outcome) director.Builder {
	return func(d *director.Director) (func() uint64, func(*director.Director) error) {
		st, err := core.New[uint64](cfg)
		if err != nil {
			return nil, func(*director.Director) error { return err }
		}
		var o quality.Oracle
		var errs []error
		frontierTasks(d, st, &o, &errs)
		finish := func(d *director.Director) error {
			h := st.NewHandle()
			drainInto(d, h.Pop, &o, &errs)
			out, ferr := finishStackOutcome(NameGuidedFrontier, "guided", seed, d, cfg.K(), 0, 0, errs)
			if out != nil {
				out.Quality = o.Snapshot()
				*sink = out
			}
			return ferr
		}
		return frontierProbe(st), finish
	}
}

// runGuidedFrontier is the pack scenario: a whole coverage-guided search
// over the frontier workload, every run drained and checked at the
// corrected Theorem-1 budget. A violation found by the search fails the
// scenario (and hands CI the failing schedule to shrink); the outcome of a
// clean search is its last run, annotated with the search totals.
func runGuidedFrontier(seed uint64) (*Outcome, error) {
	g := director.NewGuidedSearch(seed)
	var last *Outcome
	res, err := g.Explore(FrontierBuilder(FrontierConfig(), seed, &last), FrontierStepBudget)
	if err != nil {
		return last, fmt.Errorf("guided search (run %d, %d steps): %w", res.Runs, res.Steps, err)
	}
	if last == nil {
		return nil, fmt.Errorf("guided search executed no runs")
	}
	last.Steps = res.Steps
	last.Coverage = res.Distinct
	return last, nil
}
