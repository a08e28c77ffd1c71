// Command adapttune demonstrates the adaptive relaxation controller
// (internal/adapt) on a phase-shifting workload (low → high → low
// contention). It runs two experiments, for the 2D-Stack by default or for
// the 2D-Queue with -queue, optimising the goal selected with -goal:
//
//   - throughput (default): maximise ops/s under the -kceil relaxation
//     ceiling — the original demonstration.
//
//   - latency: drive the structures' own sampled P99 operation latency to
//     at most -p99-target (native) / -sim-p99-target cycles (simulated),
//     tightening semantics whenever the latency budget allows.
//
//   - energy: minimise window moves + probes per operation (the coherence-
//     traffic proxy) subject to the -floor / -sim-floor throughput floor.
//
// The two experiments per invocation:
//
//   - Simulated convergence (deterministic, machine-independent): the
//     controller steers the structure running on internal/sim's model of
//     the paper's 2-socket, 16-core testbed, where CAS contention arises
//     organically from cache-line ping-pong. Starting from a narrow
//     window, the goal's hard check must be met — e.g. the throughput
//     goal's high-contention phase must drive the geometry wide and the
//     simulated throughput past the static baseline, and the latency goal
//     must end every phase with sampled P99 at or under the target — the
//     paper's "continuous relaxation" claim, closed-loop.
//
//   - Native run (this machine): the same controller against the real
//     structure under internal/harness phases, with the error-distance
//     oracle attached (LIFO for the stack, FIFO for the queue), verifying
//     that the geometry's Theorem 1 bound stays at or under the configured
//     ceiling on every controller tick.
//
// Both print the controller time series — (tick, width, depth, k,
// throughput, cas/op, moves/op, probes/op, action) — and a per-phase
// static-vs-adaptive comparison; -csv additionally appends every tick as a
// machine-readable row for figure-style plots. Exit status 1 if the k
// ceiling is ever violated (by geometry, or by realised distance beyond the
// documented in-flight slack plus the tracked migration displacement) or
// the simulated adaptive run fails to beat its static baseline under high
// contention.
//
// -backend auto adds a third experiment after the two above: the
// hot-swap engine (internal/engine) with the 2D backend, an elimination
// stack and a strict Treiber stack registered, steered by the backend
// selector (internal/adapt.Selector). Halfway through the phased run the
// semantics budget collapses to zero, which must deterministically evict
// the relaxed backend for a strict one ("k-budget-zero" in the swap
// history and the CSV); the recorded history must then verify under the
// swap-aware k-distance budget (DESIGN.md §9). Either miss exits 1 — the
// CI gate.
//
// -placement selects the NUMA width-placement policy (DESIGN.md §7):
// local (default, LocalFirst homing + socket-first probing) or rr (the
// pre-placement round-robin behaviour). Under -placement local with the
// throughput goal the simulated section also runs the round-robin A/B
// counterpart and a fixed-geometry width sweep, and exits 1 unless
// local-first strictly beats round-robin at high contention (the NUMA
// placement gate).
//
// Usage:
//
//	adapttune [-queue] [-goal throughput|latency|energy]
//	          [-backend 2d|auto] [-placement local|rr] [-threads 8]
//	          [-phase 300ms] [-tick 10ms] [-kceil 8192] [-p99-target 2ms]
//	          [-floor 50000] [-start-width 2] [-start-depth 8] [-sim]
//	          [-native] [-csv out.csv]
//	          [-http :9090] [-trace out.jsonl] [-hold 30s]
//
// -http serves the live observability plane (DESIGN.md §8) while the native
// run executes: /metrics in Prometheus text format, /debug/vars (expvar) and
// /debug/pprof. -trace drains the structured event ring (reconfigurations,
// shrink handoffs, placement changes, controller ticks) to a JSONL file on
// exit; -hold keeps the endpoint up after the experiments finish so the
// final state can be scraped.
//
// The CSV column schema is documented (and pinned by test) in README.md
// next to this file.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/harness"
	"stack2d/internal/sim"
	"stack2d/internal/stats"
	"stack2d/internal/twodqueue"
)

func main() {
	var (
		threads    = flag.Int("threads", 8, "native worker pool size P (the high phase uses all of them)")
		phaseDur   = flag.Duration("phase", 300*time.Millisecond, "duration of each native phase")
		tick       = flag.Duration("tick", 10*time.Millisecond, "controller sampling tick (native run)")
		kceil      = flag.Int64("kceil", 8192, "relaxation ceiling the controller must respect")
		startWidth = flag.Int("start-width", 2, "initial (and static-baseline) window width")
		startDepth = flag.Int64("start-depth", 8, "initial (and static-baseline) window depth (shift = depth)")
		prefill    = flag.Int("prefill", 32768, "initial native population")
		seed       = flag.Uint64("seed", 1, "workload seed")
		quality    = flag.Bool("quality", true, "attach the error-distance oracle to the native run")
		maxDepth   = flag.Int64("max-depth", 512, "geometry depth cap")
		runSim     = flag.Bool("sim", true, "run the simulated convergence experiment")
		runNative  = flag.Bool("native", true, "run the native phased experiment")
		simThreads = flag.Int("sim-threads", 16, "simulated cores used in the high phase")
		simTicks   = flag.Int("sim-ticks", 12, "controller ticks per simulated phase")
		horizon    = flag.Int64("horizon", 200000, "simulated cycles per controller tick")
		queueMode  = flag.Bool("queue", false, "steer the 2D-Queue instead of the 2D-Stack")
		csvPath    = flag.String("csv", "", "write the controller time series to this CSV file (overwritten per run)")
		goalName   = flag.String("goal", "throughput", "controller goal: throughput, latency or energy")
		placeName  = flag.String("placement", "local", "width-placement policy: local (LocalFirst homing + socket-first probing) or rr (round-robin homes, socket-blind probing — the pre-placement behaviour)")
		p99Target  = flag.Duration("p99-target", 2*time.Millisecond, "native sampled-P99 latency target (-goal latency)")
		simP99     = flag.Int64("sim-p99-target", 4096, "simulated P99 latency target in cycles (-goal latency)")
		floor      = flag.Float64("floor", 50000, "native throughput floor in ops/s (-goal energy)")
		simFloor   = flag.Float64("sim-floor", 2e7, "simulated throughput floor in ops/s, 1 cycle = 1ns (-goal energy)")
		backendSel = flag.String("backend", "2d", "2d pins the 2D structure (geometry steering only); auto adds the hot-swap engine experiment, where a backend selector exchanges the live implementation mid-run")
		httpAddr   = flag.String("http", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :9090) during the native run")
		tracePath  = flag.String("trace", "", "drain the structured event ring to this JSONL file on exit")
		hold       = flag.Duration("hold", 0, "keep the -http endpoint up this long after the experiments finish")
	)
	flag.Parse()

	spec, err := parseGoal(*goalName, *p99Target, time.Duration(*simP99), *floor, *simFloor)
	if err != nil {
		fatal("%v", err)
	}
	placement, err := parsePlacement(*placeName)
	if err != nil {
		fatal("%v", err)
	}
	if *backendSel != "2d" && *backendSel != "auto" {
		fatal("unknown -backend %q (want 2d or auto)", *backendSel)
	}

	start := core.Config{Width: *startWidth, Depth: *startDepth, Shift: *startDepth, RandomHops: 2}
	if err := start.Validate(); err != nil {
		fatal("invalid starting geometry: %v", err)
	}
	if start.K() > *kceil {
		fatal("starting geometry already violates the ceiling: k=%d > %d (raise -kceil or narrow -start-width/-start-depth)",
			start.K(), *kceil)
	}

	structure := "stack"
	if *queueMode {
		structure = "queue"
	}
	fmt.Printf("# adapttune: runtime self-tuning of the 2D %s window (goal %s, k <= %d)\n",
		structure, spec.goal, *kceil)
	fmt.Printf("# start geometry: width %d, depth %d, shift %d (k=%d); placement %s over %d sockets\n",
		start.Width, start.Depth, start.Shift, start.K(), placement.Name(), sim.DefaultMachine().Sockets)

	var sink *csvSink
	if *csvPath != "" {
		var err error
		sink, err = newCSVSink(*csvPath)
		if err != nil {
			fatal("-csv: %v", err)
		}
	}
	plane := newObsPlane(*httpAddr, *tracePath, *hold)

	failed := false
	if *runSim {
		if !simDemo(spec, structure, start, placement, *kceil, *simThreads, *simTicks, *horizon, *maxDepth, sink) {
			failed = true
		}
	}
	if *runNative {
		var ok bool
		if *queueMode {
			ok = nativeQueueDemo(spec, start, placement, *kceil, *threads, *phaseDur, *tick, *prefill, *seed, *quality, *maxDepth, sink, plane)
		} else {
			ok = nativeDemo(spec, start, placement, *kceil, *threads, *phaseDur, *tick, *prefill, *seed, *quality, *maxDepth, sink, plane)
		}
		if !ok {
			failed = true
		}
	}
	if *backendSel == "auto" {
		if !backendDemo(start, *threads, *phaseDur, *tick, *prefill, *seed, sink, plane) {
			failed = true
		}
	}
	if sink != nil {
		if err := sink.close(); err != nil {
			fatal("-csv: %v", err)
		}
		fmt.Printf("\ncsv time series written to %s (%d rows)\n", *csvPath, sink.rows)
	}
	plane.finish()
	if failed {
		os.Exit(1)
	}
}

// goalSpec bundles the selected controller goal with its targets, native
// and simulated (simulated latencies are cycles read as nanoseconds).
type goalSpec struct {
	goal        adapt.Goal
	p99Native   time.Duration
	p99Sim      time.Duration
	floorNative float64
	floorSim    float64
}

// parsePlacement maps the -placement flag to a core.PlacementPolicy:
// "local" is LocalFirst (requester-first homing, socket-first probing),
// "rr" is RoundRobin (interleaved homes, socket-blind probing — how the
// structures behaved before placement existed).
func parsePlacement(name string) (core.PlacementPolicy, error) {
	switch name {
	case "local":
		return core.LocalFirst(), nil
	case "rr":
		return core.RoundRobin(), nil
	default:
		return nil, fmt.Errorf("unknown -placement %q (want local or rr)", name)
	}
}

func parseGoal(name string, p99Native, p99Sim time.Duration, floorNative, floorSim float64) (goalSpec, error) {
	spec := goalSpec{p99Native: p99Native, p99Sim: p99Sim, floorNative: floorNative, floorSim: floorSim}
	switch name {
	case "throughput":
		spec.goal = adapt.MaxThroughput
	case "latency":
		spec.goal = adapt.TargetLatency
	case "energy":
		spec.goal = adapt.MinEnergy
	default:
		return spec, fmt.Errorf("unknown -goal %q (want throughput, latency or energy)", name)
	}
	return spec, nil
}

// policy builds the controller policy for one experiment: the shared
// geometry ladder plus the goal's targets (simulated runs use the cycle-
// denominated ones).
func (g goalSpec) policy(base adapt.Policy, sim bool) adapt.Policy {
	base.Goal = g.goal
	switch g.goal {
	case adapt.TargetLatency:
		if sim {
			base.LatencyTarget = g.p99Sim
		} else {
			base.LatencyTarget = g.p99Native
		}
	case adapt.MinEnergy:
		if sim {
			base.ThroughputFloor = g.floorSim
		} else {
			base.ThroughputFloor = g.floorNative
		}
	}
	return base
}

// csvSink accumulates controller tick rows across all experiments of one
// invocation, in a format gnuplot/pandas consume directly (ROADMAP's
// figure-style-plots item).
type csvSink struct {
	f      *os.File
	w      *csv.Writer
	rows   int
	closed bool
}

// csvHeader is the pinned column schema of the -csv time series; the
// README in this directory documents each column and
// TestCSVSinkWritesTimeSeries / TestCSVSchemaDocumented keep all three in
// sync.
var csvHeader = []string{
	"experiment", "phase", "tick", "width", "depth", "shift", "k",
	"ops", "throughput", "cas_per_op", "moves_per_op", "probes_per_op",
	"p99_us", "energy_per_op", "action", "backend", "reason",
}

func newCSVSink(path string) (*csvSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	s := &csvSink{f: f, w: csv.NewWriter(f)}
	if err := s.w.Write(csvHeader); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// record appends one controller tick under the given experiment label
// ("sim-stack", "native-queue", ...); phase is empty for native runs, whose
// ticks are not phase-aligned, and the trailing backend/reason columns are
// empty — a geometry controller retunes one fixed structure. Nil-safe, so
// call sites need no guards.
func (s *csvSink) record(experiment, phase string, rec adapt.TickRecord) {
	if s == nil {
		return
	}
	s.rows++
	s.w.Write([]string{
		experiment, phase,
		fmt.Sprintf("%d", rec.Tick),
		fmt.Sprintf("%d", rec.Width),
		fmt.Sprintf("%d", rec.Depth),
		fmt.Sprintf("%d", rec.Shift),
		fmt.Sprintf("%d", rec.K),
		fmt.Sprintf("%d", rec.Ops),
		fmt.Sprintf("%.2f", rec.Throughput),
		fmt.Sprintf("%.5f", rec.CASPerOp),
		fmt.Sprintf("%.5f", rec.MovesPerOp),
		fmt.Sprintf("%.3f", rec.ProbesPerOp),
		fmt.Sprintf("%.3f", float64(rec.P99)/1e3),
		fmt.Sprintf("%.3f", rec.EnergyPerOp),
		rec.Action, "", "",
	})
}

// recordSelector appends one backend-selector tick (-backend auto). The
// geometry columns are empty — the selector exchanges whole structures,
// it does not know the live one's window — and the trailing columns carry
// the active backend and, on swap ticks, the trigger reason (the string
// CI greps for). Nil-safe like record.
func (s *csvSink) recordSelector(experiment string, rec adapt.SelectorRecord) {
	if s == nil {
		return
	}
	s.rows++
	s.w.Write([]string{
		experiment, "",
		fmt.Sprintf("%d", rec.Tick),
		"", "", "",
		fmt.Sprintf("%d", rec.K),
		fmt.Sprintf("%d", rec.Ops),
		fmt.Sprintf("%.2f", rec.Throughput),
		fmt.Sprintf("%.5f", rec.CASPerOp),
		"", "", "", "",
		rec.Action,
		rec.Backend,
		rec.Reason,
	})
}

func (s *csvSink) close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	s.w.Flush()
	if err := s.w.Error(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// segmentFunc is the simulated-segment signature shared by the stack
// (sim.TwoDSegment) and queue (sim.TwoDQueueSegment) models; homes/
// localProbe are nil/false for placement-blind runs.
type segmentFunc func(m sim.Machine, cfg core.Config, p int, horizon int64, seed uint64, homes []int, localProbe bool) (core.OpStats, error)

// simTarget adapts the discrete-event simulation to adapt.Reconfigurable
// (and adapt.SocketAware): each controller tick corresponds to one
// simulated segment at the current geometry, whose counters accumulate
// into an OpStats. With a placement policy set it carries the
// slot→socket home map across reconfigurations exactly as the native
// structures do (core.PlaceSlots on growth, core.ShrinkSurvivors on
// shrink), so the controller's requester attribution steers the simulated
// homes too.
type simTarget struct {
	machine sim.Machine
	cfg     core.Config
	acc     core.OpStats
	seg     segmentFunc          // nil selects the stack model
	policy  core.PlacementPolicy // nil = placement-blind
	homes   []int
}

// newSimTarget builds a simulation target at the starting geometry with
// its initial homes placed by the policy (no requester attribution yet).
func newSimTarget(machine sim.Machine, cfg core.Config, seg segmentFunc, policy core.PlacementPolicy) *simTarget {
	st := &simTarget{machine: machine, cfg: cfg, seg: seg, policy: policy}
	if policy != nil {
		st.homes = core.PlaceSlots(policy, nil, cfg.Width, -1, machine.Sockets)
	}
	return st
}

func (st *simTarget) Config() core.Config { return st.cfg }

func (st *simTarget) Reconfigure(cfg core.Config) error {
	return st.ReconfigureOnSocket(cfg, -1)
}

func (st *simTarget) ReconfigureOnSocket(cfg core.Config, requester int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if st.policy != nil {
		switch {
		case cfg.Width > st.cfg.Width:
			st.homes = core.PlaceSlots(st.policy, st.homes, cfg.Width, requester, st.machine.Sockets)
		case cfg.Width < st.cfg.Width:
			_, st.homes = core.ShrinkPlan(st.policy, st.homes, cfg.Width, requester)
		}
	}
	st.cfg = cfg
	return nil
}

func (st *simTarget) StatsSnapshot() core.OpStats { return st.acc }

// segment simulates horizon cycles at the current geometry with p threads
// and folds the work into the accumulated stats.
func (st *simTarget) segment(p int, horizon int64, seed uint64) (core.OpStats, error) {
	seg := st.seg
	if seg == nil {
		seg = sim.TwoDSegment
	}
	localProbe := st.policy != nil && st.policy.LocalProbeOrder()
	w, err := seg(st.machine, st.cfg, p, horizon, seed, st.homes, localProbe)
	st.acc.Add(w)
	return w, err
}

// simPhase is one contention phase of the simulated experiment.
type simPhase struct {
	name    string
	threads int
}

// simRow is one controller tick of a simulated adaptive run.
type simRow struct {
	phase string
	rec   adapt.TickRecord
	ops   uint64
}

// runAdaptiveSim drives the real controller against the simulated machine,
// one Step per segment, under the given placement policy; it returns the
// per-phase op totals, the tick rows and the target's final state. The
// same seeds as the static baseline keep the comparison apples-to-apples.
func runAdaptiveSim(spec goalSpec, machine sim.Machine, seg segmentFunc, start core.Config, placement core.PlacementPolicy,
	kceil, maxDepth int64, simThreads, simTicks int, horizon int64, phases []simPhase) ([]uint64, []simRow, *simTarget, *adapt.Controller) {

	st := newSimTarget(machine, start, seg, placement)
	ctrl, err := adapt.New(st, spec.policy(adapt.Policy{
		KCeiling:      kceil,
		MinWidth:      start.Width,
		MaxWidth:      4 * simThreads,
		MinDepth:      start.Depth,
		MaxDepth:      maxDepth,
		Cooldown:      1,
		MinOpsPerTick: 32,
	}, true))
	if err != nil {
		fatal("sim controller: %v", err)
	}
	ops := make([]uint64, len(phases))
	var rows []simRow
	for pi, ph := range phases {
		for t := 0; t < simTicks; t++ {
			w, err := st.segment(ph.threads, horizon, uint64(pi*simTicks+t)+1)
			if err != nil {
				fatal("adaptive sim segment: %v", err)
			}
			ops[pi] += w.Ops()
			rec := ctrl.Step(time.Duration(horizon)) // 1 simulated cycle ≡ 1ns
			rows = append(rows, simRow{phases[pi].name, rec, w.Ops()})
		}
	}
	return ops, rows, st, ctrl
}

// simDemo runs the deterministic convergence experiment for the given
// structure ("stack" or "queue"); returns true on success. The verdict
// depends on the goal: throughput must beat the static baseline under high
// contention, latency must end every phase with P99 at or under the target,
// energy must end with cheaper operations than it started while holding the
// floor; all goals must respect the k ceiling on every tick. Under the
// local-first placement with the throughput goal it additionally runs the
// round-robin A/B counterpart and requires the local-first run's
// high-contention phase to be strictly faster (the NUMA placement gate,
// DESIGN.md §7).
func simDemo(spec goalSpec, structure string, start core.Config, placement core.PlacementPolicy, kceil int64, simThreads, simTicks int, horizon, maxDepth int64, sink *csvSink) bool {
	machine := sim.DefaultMachine()
	if simThreads > machine.Cores() {
		fatal("sim-threads %d exceeds the simulated machine's %d cores", simThreads, machine.Cores())
	}
	var seg segmentFunc = sim.TwoDSegment
	if structure == "queue" {
		seg = sim.TwoDQueueSegment
	}
	low := simThreads / 4
	if low < 1 {
		low = 1
	}
	phases := []simPhase{
		{"low-1", low}, {"high", simThreads}, {"low-2", low},
	}

	fmt.Printf("\n## simulated %s convergence (2×%d-core machine model, %d cycles/tick, placement %s)\n",
		structure, machine.CoresPerSocket, horizon, placement.Name())

	// Static baseline: same segments, geometry pinned at start.
	staticOps := make([]uint64, len(phases))
	{
		st := newSimTarget(machine, start, seg, placement)
		for pi, ph := range phases {
			for t := 0; t < simTicks; t++ {
				w, err := st.segment(ph.threads, horizon, uint64(pi*simTicks+t)+1)
				if err != nil {
					fatal("static sim segment: %v", err)
				}
				staticOps[pi] += w.Ops()
			}
		}
	}

	// Adaptive run: the real controller steps once per segment.
	adaptiveOps, rows, st, ctrl := runAdaptiveSim(spec, machine, seg, start, placement, kceil, maxDepth, simThreads, simTicks, horizon, phases)
	for _, r := range rows {
		sink.record("sim-"+structure, r.phase, r.rec)
	}

	ts := stats.NewTable("tick", "phase", "width", "depth", "k", "ops/kcycle", "cas/op", "moves/op", "probes/op", "p99(cyc)", "action")
	for _, r := range rows {
		ts.AddRow(
			fmt.Sprintf("%d", r.rec.Tick),
			r.phase,
			fmt.Sprintf("%d", r.rec.Width),
			fmt.Sprintf("%d", r.rec.Depth),
			fmt.Sprintf("%d", r.rec.K),
			fmt.Sprintf("%.1f", float64(r.ops)*1000/float64(horizon)),
			fmt.Sprintf("%.3f", r.rec.CASPerOp),
			fmt.Sprintf("%.4f", r.rec.MovesPerOp),
			fmt.Sprintf("%.2f", r.rec.ProbesPerOp),
			fmt.Sprintf("%d", int64(r.rec.P99)),
			r.rec.Action,
		)
	}
	ts.Render(os.Stdout)

	ok := true
	fmt.Println()
	for pi, ph := range phases {
		fmt.Printf("sim %-6s (%2d threads): static %8.1f ops/kcycle, adaptive %8.1f ops/kcycle (%.2fx)\n",
			ph.name, ph.threads,
			float64(staticOps[pi])*1000/float64(int64(simTicks)*horizon),
			float64(adaptiveOps[pi])*1000/float64(int64(simTicks)*horizon),
			float64(adaptiveOps[pi])/float64(staticOps[pi]))
	}
	final := st.cfg
	fmt.Printf("sim final geometry: width %d, depth %d (k=%d, started at k=%d)\n",
		final.Width, final.Depth, final.K(), start.K())
	if st.homes != nil {
		perSocket := make([]int, machine.Sockets)
		for _, hm := range st.homes {
			perSocket[hm]++
		}
		fmt.Printf("sim final placement: %v slots per socket (homes %v)\n", perSocket, st.homes)
	}
	for _, rec := range ctrl.History() {
		if rec.K > kceil {
			fmt.Printf("FAIL: sim tick %d ran with k=%d above the ceiling %d\n", rec.Tick, rec.K, kceil)
			ok = false
		}
	}
	switch spec.goal {
	case adapt.TargetLatency:
		// Convergence: by the end of every phase — including the high-
		// contention one that blows the tail up on the narrow start
		// geometry — the sampled P99 must be back at or under the target.
		for i, r := range rows {
			if i+1 < len(rows) && rows[i+1].phase == r.phase {
				continue // not the phase's last tick
			}
			if r.rec.P99 > spec.p99Sim {
				fmt.Printf("FAIL: sim %s phase ended with P99 %d cycles above the %d-cycle target\n",
					r.phase, int64(r.rec.P99), int64(spec.p99Sim))
				ok = false
			} else {
				fmt.Printf("sim %-6s phase converged: final-tick P99 %d cycles <= target %d\n",
					r.phase, int64(r.rec.P99), int64(spec.p99Sim))
			}
		}
	case adapt.MinEnergy:
		hist := ctrl.History()
		if len(hist) == 0 {
			fmt.Printf("FAIL: sim energy run recorded no controller ticks\n")
			ok = false
			break
		}
		first, last := hist[0], hist[len(hist)-1]
		fmt.Printf("sim energy/op: %.2f (tick 0) -> %.2f (final), throughput %.1f ops/kcycle vs floor %.1f\n",
			first.EnergyPerOp, last.EnergyPerOp, last.Throughput/1e6, spec.floorSim/1e6)
		if last.EnergyPerOp >= first.EnergyPerOp {
			fmt.Printf("FAIL: sim energy/op did not improve (%.2f -> %.2f)\n", first.EnergyPerOp, last.EnergyPerOp)
			ok = false
		}
		if last.Throughput < spec.floorSim {
			fmt.Printf("FAIL: sim final throughput %.0f below the floor %.0f\n", last.Throughput, spec.floorSim)
			ok = false
		}
	default: // MaxThroughput
		if adaptiveOps[1] <= staticOps[1] {
			fmt.Printf("FAIL: simulated adaptive high phase (%d ops) did not beat static (%d ops)\n",
				adaptiveOps[1], staticOps[1])
			ok = false
		}
		if final.K() <= start.K() {
			fmt.Printf("FAIL: controller never grew the window under simulated contention\n")
			ok = false
		}
	}

	// The placement A/B gate: with the local-first policy and the
	// throughput goal, rerun the identical adaptive experiment (same
	// seeds, same controller ladder) under round-robin placement — the
	// pre-placement behaviour — and require local-first to win the
	// high-contention phase strictly. This is the deterministic
	// demonstration that homing new slots on the requesting socket and
	// probing same-socket slots first keeps the hot window intra-socket
	// (DESIGN.md §7, EXPERIMENTS.md).
	if placement.LocalProbeOrder() && spec.goal == adapt.MaxThroughput {
		rrOps, _, _, _ := runAdaptiveSim(spec, machine, seg, start, core.RoundRobin(), kceil, maxDepth, simThreads, simTicks, horizon, phases)
		fmt.Println()
		for pi, ph := range phases {
			fmt.Printf("sim placement A/B %-6s (%2d threads): round-robin %8.1f ops/kcycle, local-first %8.1f ops/kcycle (%.2fx)\n",
				ph.name, ph.threads,
				float64(rrOps[pi])*1000/float64(int64(simTicks)*horizon),
				float64(adaptiveOps[pi])*1000/float64(int64(simTicks)*horizon),
				float64(adaptiveOps[pi])/float64(rrOps[pi]))
		}
		if adaptiveOps[1] <= rrOps[1] {
			fmt.Printf("FAIL: local-first high phase (%d ops) did not beat round-robin placement (%d ops)\n",
				adaptiveOps[1], rrOps[1])
			ok = false
		}

		// Fixed-geometry width sweep at full contention (P = simThreads):
		// the same A/B with the adaptive transient factored out. The win
		// is largest while the structure is narrower than the thread
		// count — the regime the high phase's widening passes through —
		// and decays once width reaches 4P and contention is gone, which
		// is itself the §7 story: placement pays exactly where coherence
		// traffic lives. Local-first must win at every gated width — from
		// minGatedWidth (4 slots per socket) up to P. Outside that range
		// rows are shown but not gated: narrower, confining a socket's
		// threads to one or two local lines can lose to spreading (the
		// exclusive line reservations serialise them); wider than P,
		// contention is gone and the margins are noise-thin (DESIGN.md §7
		// records both caveats).
		sweep := stats.NewTable("width", "rr ops/kcycle", "local ops/kcycle", "speedup")
		const minGatedWidth = 8 // 4 slots per socket on the 2-socket model
		for _, width := range []int{4, 8, 16, 32} {
			cfg := core.Config{Width: width, Depth: 64, Shift: 64, RandomHops: start.RandomHops}
			rrHomes := core.PlaceSlots(core.RoundRobin(), nil, width, -1, machine.Sockets)
			localHomes := core.PlaceSlots(core.LocalFirst(), nil, width, -1, machine.Sockets)
			rrW, err := seg(machine, cfg, simThreads, horizon, 1, rrHomes, false)
			if err != nil {
				fatal("placement sweep (rr): %v", err)
			}
			localW, err := seg(machine, cfg, simThreads, horizon, 1, localHomes, true)
			if err != nil {
				fatal("placement sweep (local): %v", err)
			}
			sweep.AddRow(
				fmt.Sprintf("%d", width),
				fmt.Sprintf("%.1f", float64(rrW.Ops())*1000/float64(horizon)),
				fmt.Sprintf("%.1f", float64(localW.Ops())*1000/float64(horizon)),
				fmt.Sprintf("%.2fx", float64(localW.Ops())/float64(rrW.Ops())),
			)
			if width >= minGatedWidth && width <= simThreads && localW.Ops() <= rrW.Ops() {
				fmt.Printf("FAIL: placement sweep width %d: local-first (%d ops) did not beat round-robin (%d ops)\n",
					width, localW.Ops(), rrW.Ops())
				ok = false
			}
		}
		fmt.Printf("\nplacement width sweep (P=%d, depth 64, one %d-cycle segment each):\n", simThreads, horizon)
		sweep.Render(os.Stdout)
	}

	// The shrink path the narrowing goals exercise, quantified on the same
	// machine model: warm handoff (direct least-loaded placement) vs the
	// retired single-handle funnel, for a representative halving at the
	// native prefill population.
	hs := sim.HandoffStack
	if structure == "queue" {
		hs = sim.HandoffQueue
	}
	oldW := 2 * final.Width
	if hm, err := sim.ModelShrinkHandoff(machine, hs, oldW, final.Width, final.Depth, final.Shift, 32768, 16384); err == nil {
		fmt.Printf("modelled shrink handoff (width %d->%d, 32768 live + 16384 stranded): "+
			"funnel %d cycles, %d window moves, disp <= %d; warm %d cycles, %d window move(s), disp <= %d\n",
			oldW, final.Width, hm.FunnelCycles, hm.FunnelWindowMoves, hm.FunnelDisplacement,
			hm.WarmCycles, hm.WarmWindowMoves, hm.WarmDisplacement)
	}
	return ok
}

// nativeDemo runs the phased stack workload on this machine; returns true
// on success (ceiling violations fail it; a missed goal metric only warns,
// since native contention and latency depend on the hardware — the
// deterministic pass/fail lives in the simulated section).
func nativeDemo(spec goalSpec, start core.Config, placement core.PlacementPolicy, kceil int64, threads int, phaseDur, tick time.Duration,
	prefill int, seed uint64, quality bool, maxDepth int64, sink *csvSink, plane *obsPlane) bool {

	phases := harness.ContentionPhases(threads, phaseDur)
	w := harness.PhasedWorkload{MaxWorkers: threads, Prefill: prefill, Seed: seed, Quality: quality}
	sockets := sim.DefaultMachine().Sockets

	fmt.Printf("\n## native stack run (P=%d, %v/phase, quality=%v, placement %s)\n", threads, phaseDur, quality, placement.Name())

	staticStack := core.MustNew[uint64](start)
	staticStack.SetPlacement(placement, sockets)
	staticRes, err := harness.RunPhased(staticStack, phases, w)
	if err != nil {
		fatal("static run failed: %v", err)
	}

	adaptStack := core.MustNew[uint64](start)
	plane.instrumentStack(adaptStack)
	adaptStack.SetPlacement(placement, sockets)
	ctrl, err := adapt.New(adaptStack, spec.policy(adapt.Policy{
		KCeiling: kceil,
		Tick:     tick,
		MinWidth: start.Width,
		MaxWidth: 4 * threads,
		MinDepth: start.Depth,
		MaxDepth: maxDepth,
	}, false))
	if err != nil {
		fatal("controller: %v", err)
	}
	plane.instrumentController(ctrl, "stack")
	ctrl.Start()
	adaptRes, err := harness.RunPhased(adaptStack, phases, w)
	ctrl.Stop()
	if err != nil {
		fatal("adaptive run failed: %v", err)
	}

	// The stack's realised distance is checked against the bare ceiling —
	// the LIFO oracle needs no in-flight slack (a late head-insert can only
	// shrink a distance; DESIGN.md §5) — plus the warm handoff's tracked
	// splice displacement, which budgets any width-shrink migration the
	// narrowing goals triggered.
	migAllowance := adaptStack.ShrinkDisplacementBound()
	ok := reportNative(spec, "native-stack", ctrl, staticRes, adaptRes, kceil, quality, 0, migAllowance, sink)

	final := adaptStack.Config()
	fmt.Printf("native final geometry: width %d, depth %d, shift %d (k=%d, started at k=%d)\n",
		final.Width, final.Depth, final.Shift, final.K(), start.K())
	if err := adaptStack.CheckInvariants(); err != nil {
		fmt.Printf("FAIL: invariants after adaptive run: %v\n", err)
		ok = false
	}
	return ok
}

// nativeQueueDemo is nativeDemo for the 2D-Queue: the same phased workload
// and controller, driving the queue directly (it speaks core.Config), with
// the FIFO error-distance oracle instead of the LIFO one.
func nativeQueueDemo(spec goalSpec, start core.Config, placement core.PlacementPolicy, kceil int64, threads int, phaseDur, tick time.Duration,
	prefill int, seed uint64, quality bool, maxDepth int64, sink *csvSink, plane *obsPlane) bool {

	phases := harness.ContentionPhases(threads, phaseDur)
	w := harness.PhasedWorkload{MaxWorkers: threads, Prefill: prefill, Seed: seed, Quality: quality}
	sockets := sim.DefaultMachine().Sockets

	fmt.Printf("\n## native queue run (P=%d, %v/phase, quality=%v, placement %s)\n", threads, phaseDur, quality, placement.Name())

	staticQueue := twodqueue.MustNew[uint64](start)
	staticQueue.SetPlacement(placement, sockets)
	staticRes, err := harness.RunPhasedQueue(staticQueue, phases, w)
	if err != nil {
		fatal("static run failed: %v", err)
	}

	adaptQueue := twodqueue.MustNew[uint64](start)
	plane.instrumentQueue(adaptQueue)
	adaptQueue.SetPlacement(placement, sockets)
	ctrl, err := adapt.New(adaptQueue, spec.policy(adapt.Policy{
		KCeiling: kceil,
		Tick:     tick,
		MinWidth: start.Width,
		MaxWidth: 4 * threads,
		MinDepth: start.Depth,
		MaxDepth: maxDepth,
	}, false))
	if err != nil {
		fatal("controller: %v", err)
	}
	plane.instrumentController(ctrl, "queue")
	ctrl.Start()
	adaptRes, err := harness.RunPhasedQueue(adaptQueue, phases, w)
	ctrl.Stop()
	if err != nil {
		fatal("adaptive run failed: %v", err)
	}

	// Concurrent executions may exceed the sequential bound by one position
	// per in-flight operation, and the invocation-order oracle recording
	// adds the same again (see twodqueue.Config.K and harness.runPhased),
	// so the realised FIFO distance is checked against ceiling + 2·threads.
	// Width-shrink migrations legitimately displace items further (DESIGN.md
	// §5); the queue tracks that displacement exactly, so the check budgets
	// it instead of being waived.
	migAllowance := adaptQueue.ShrinkDisplacementBound()
	ok := reportNative(spec, "native-queue", ctrl, staticRes, adaptRes, kceil, quality, 2*int64(threads), migAllowance, sink)

	final := adaptQueue.Config()
	fmt.Printf("native final geometry: width %d, depth %d, shift %d (k=%d, started at k=%d)\n",
		final.Width, final.Depth, final.Shift, final.K(), start.K())

	// Conservation: every enqueue must still be accounted for. The workers
	// flushed their counters at run end, so the snapshot is exact.
	snap := adaptQueue.StatsSnapshot()
	if got, want := adaptQueue.Len(), int(snap.Pushes)-int(snap.Pops); got != want {
		fmt.Printf("FAIL: queue holds %d items but counters say %d (items lost or duplicated)\n", got, want)
		ok = false
	}
	return ok
}

// reportNative prints the shared tick/phase tables for a native run and
// applies the ceiling checks: every tick's geometry bound must be at or
// under kceil, and (when quality is on) the realised error distance must be
// within kceil plus the structure's concurrency slack plus the tracked
// migration allowance (non-zero only when width shrinks actually migrated
// items, and bounded by the populations they displaced).
func reportNative(spec goalSpec, experiment string, ctrl *adapt.Controller, staticRes, adaptRes harness.PhasedResult,
	kceil int64, quality bool, distanceSlack, migrationAllowance int64, sink *csvSink) bool {

	ts := stats.NewTable("tick", "width", "depth", "k", "thr(ops/s)", "cas/op", "moves/op", "probes/op", "p99(µs)", "action")
	for _, rec := range ctrl.History() {
		ts.AddRow(
			fmt.Sprintf("%d", rec.Tick),
			fmt.Sprintf("%d", rec.Width),
			fmt.Sprintf("%d", rec.Depth),
			fmt.Sprintf("%d", rec.K),
			fmt.Sprintf("%.0f", rec.Throughput),
			fmt.Sprintf("%.3f", rec.CASPerOp),
			fmt.Sprintf("%.4f", rec.MovesPerOp),
			fmt.Sprintf("%.2f", rec.ProbesPerOp),
			fmt.Sprintf("%.1f", float64(rec.P99)/1e3),
			rec.Action,
		)
		sink.record(experiment, "", rec)
	}
	ts.Render(os.Stdout)

	fmt.Println()
	tb := stats.NewTable("phase", "workers", "think", "static ops/s", "adaptive ops/s", "speedup", "mean-err", "max-err(cum)")
	for i, pr := range adaptRes.Phases {
		sp := staticRes.Phases[i]
		tb.AddRow(
			pr.Phase.Name,
			fmt.Sprintf("%d", pr.Phase.Workers),
			fmt.Sprintf("%d", pr.Phase.ThinkSpin),
			stats.HumanOps(sp.Throughput),
			stats.HumanOps(pr.Throughput),
			fmt.Sprintf("%.2fx", pr.Throughput/sp.Throughput),
			fmt.Sprintf("%.1f", pr.MeanDistance),
			fmt.Sprintf("%d", pr.MaxDistanceSoFar),
		)
	}
	tb.Render(os.Stdout)

	ok := true
	fmt.Println()
	for _, rec := range ctrl.History() {
		if rec.K > kceil {
			fmt.Printf("FAIL: %s tick %d ran with k=%d above the ceiling %d\n", experiment, rec.Tick, rec.K, kceil)
			ok = false
		}
	}
	if quality {
		allowed := kceil + distanceSlack + migrationAllowance
		switch max := int64(adaptRes.Quality.Max); {
		case max > allowed:
			fmt.Printf("FAIL: realised error distance %d exceeds the ceiling %d (+%d concurrency slack, +%d migration)\n",
				max, kceil, distanceSlack, migrationAllowance)
			ok = false
		case max > kceil+distanceSlack:
			fmt.Printf("note: realised error distance %d above ceiling %d (+%d slack) but within the "+
				"tracked width-shrink migration displacement (+%d): OK\n",
				max, kceil, distanceSlack, migrationAllowance)
		default:
			fmt.Printf("realised max error distance %d <= ceiling %d (+%d slack): OK\n",
				max, kceil, distanceSlack)
		}
	}
	switch spec.goal {
	case adapt.TargetLatency:
		// Last tick with a usable latency estimate decides convergence; a
		// miss is a note, not a failure — native tails on an oversubscribed
		// machine are scheduler-dominated (see the simulated section for
		// the deterministic check).
		var last adapt.TickRecord
		found := false
		for _, rec := range ctrl.History() {
			// Mirror the controller's own signal threshold: a tick with
			// fewer samples than MinLatencySamples is not a usable P99.
			if rec.LatencySamples >= adapt.MinLatencySamples {
				last, found = rec, true
			}
		}
		switch {
		case !found:
			fmt.Printf("note: native run collected no usable latency ticks (run longer phases)\n")
		case last.P99 <= spec.p99Native:
			fmt.Printf("native latency goal converged: final sampled P99 %v <= target %v\n", last.P99, spec.p99Native)
		default:
			fmt.Printf("note: native final sampled P99 %v above target %v — native tails are "+
				"scheduler-dependent; the simulated section is the deterministic check\n", last.P99, spec.p99Native)
		}
	case adapt.MinEnergy:
		// Ticks after the workers stop see no operations; summarise from
		// the last tick that did.
		hist := ctrl.History()
		if len(hist) == 0 {
			fmt.Printf("note: native run finished before the first controller tick (shorten -tick or lengthen -phase)\n")
			break
		}
		var first, last adapt.TickRecord
		sawWork := false
		for _, rec := range hist {
			if rec.Ops == 0 {
				continue
			}
			if !sawWork {
				first, sawWork = rec, true
			}
			last = rec
		}
		if !sawWork {
			fmt.Printf("note: no controller tick observed any operations\n")
			break
		}
		fmt.Printf("native energy/op: %.2f (tick %d) -> %.2f (final), final throughput %.0f ops/s vs floor %.0f\n",
			first.EnergyPerOp, first.Tick, last.EnergyPerOp, last.Throughput, spec.floorNative)
	default:
		sHigh, aHigh := staticRes.Phases[1].Throughput, adaptRes.Phases[1].Throughput
		if aHigh <= sHigh {
			fmt.Printf("note: native adaptive high phase at %.2fx of static — expected on low-core machines, "+
				"where the window has no contention to relieve (see the simulated section)\n", aHigh/sHigh)
		} else {
			fmt.Printf("native high-contention phase: adaptive %.2fx static\n", aHigh/sHigh)
		}
	}
	return ok
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "adapttune: "+format+"\n", args...)
	os.Exit(1)
}
