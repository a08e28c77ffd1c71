// Package adapt implements a feedback controller that retunes a 2D-Stack's
// window geometry at runtime — the "continuously relaxes semantics for
// better performance" direction of the paper's title taken literally.
//
// The controller samples the stack's aggregated operation counters
// (core.Stack.StatsSnapshot) on a fixed tick and computes the three
// signals the paper's step-complexity analysis identifies as the cost
// drivers, each steering one geometry knob:
//
//   - contention — failed descriptor CASes per operation. High contention
//     means too many threads collide on too few sub-stacks: widen the
//     structure (double width — more disjoint access).
//   - window churn — Global window moves per operation. High churn means
//     the window band is too shallow for the operation mix: deepen it
//     (double depth, shift = depth — fewer global coordination events).
//   - search cost — sub-stack probes per operation. High search cost with
//     neither of the above means the structure is wider than the offered
//     load needs: narrow it (halve width — cheaper searches, tighter
//     semantics).
//
// Each decision moves exactly one knob one doubling/halving step, then
// holds for a cooldown so the signals resettle: movement is monotone per
// decision and geometry never jumps. Every candidate's Theorem 1 bound
// k = (2·depth + shift)·(width − 1) is computed before reconfiguring, so
// the controller never applies a geometry whose bound exceeds the
// configured k ceiling. The one caveat is inherent to live retuning, not
// to the controller: while a width shrink's migration completes, the
// migrated items transiently reorder beyond the steady-state bound
// (DESIGN.md §4, invariant 2); the MaxThroughput goal only shrinks width
// when the structure is quiet, which keeps that transient small.
//
// Four goals are supported: MaxThroughput holds relaxation under a k
// ceiling and chases throughput; MinRelaxation holds throughput above a
// floor and chases the smallest k that sustains it; TargetLatency drives
// the structures' sampled P99 operation latency to a configured target
// (widening when contention pushes the tail up, narrowing or deepening
// otherwise, and spending spare latency budget on tighter semantics); and
// MinEnergy minimises the structure's work per operation — window moves
// plus probes, the coherence-traffic proxy — subject to a throughput
// floor. The latency signal is the structures' own 1-in-N sampled
// histogram (core.OpStats.Latency), which flows through the same
// StatsSnapshot aggregation as every other counter, so latency-targeted
// control needs no harness instrumentation.
//
// Placement-aware targets (SocketAware) additionally receive, with every
// geometry change, the socket whose CAS pressure dominated the deciding
// interval (core.OpStats.SocketCAS attribution), so a LocalFirst placement
// policy can home the new sub-structures on the socket that asked for them
// and shrink away from it last — the NUMA-aware width placement of
// DESIGN.md §7.
package adapt

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"stack2d/internal/core"
)

// Goal selects what the controller optimises for.
type Goal int

const (
	// MaxThroughput maximises operations/second subject to the active
	// geometry's k bound never exceeding Policy.KCeiling.
	MaxThroughput Goal = iota
	// MinRelaxation minimises the k bound subject to throughput staying
	// above Policy.ThroughputFloor.
	MinRelaxation
	// TargetLatency drives the sampled P99 operation latency to at most
	// Policy.LatencyTarget: above the target it widens when contention is
	// the dominant signal (CAS pressure pushes the tail up), deepens when
	// window churn is, and narrows otherwise (search cost); comfortably
	// below the target with quiet signals it reduces k, spending the spare
	// latency budget on tighter semantics. KCeiling still caps every
	// candidate.
	TargetLatency
	// MinEnergy minimises the structure's work per operation — window
	// moves plus probes per op, the proxy for coherence traffic and hence
	// energy — subject to throughput staying above Policy.ThroughputFloor:
	// below the floor it widens to defend throughput; above the floor
	// (with margin) it deepens while window churn dominates and narrows
	// while search cost does.
	MinEnergy
)

func (g Goal) String() string {
	switch g {
	case MaxThroughput:
		return "max-throughput"
	case MinRelaxation:
		return "min-relaxation"
	case TargetLatency:
		return "latency-target"
	case MinEnergy:
		return "energy-per-op"
	default:
		return fmt.Sprintf("Goal(%d)", int(g))
	}
}

// The controllers' decision thresholds. Signals are per operation.
const (
	// HighCAS is the CAS-failures-per-operation level above which the
	// controller widens the structure, and the level a Selector counts
	// as a contention storm.
	HighCAS = 0.05
	// LowCAS is the level below which contention is considered gone and
	// narrowing becomes admissible.
	LowCAS = 0.005
	// HighMoves is the window-moves-per-operation level above which the
	// window deepens.
	HighMoves = 0.01
	// LowMoves is the level below which window churn is considered gone
	// (a narrowing precondition).
	LowMoves = 0.002
	// HighProbes is the probes-per-operation level above which (with low
	// contention and low churn) the structure narrows.
	HighProbes = 4
	// FloorMargin is the hysteresis band above the throughput floor:
	// MinRelaxation (and MinEnergy) act on their secondary objective only
	// while throughput exceeds floor·(1+FloorMargin), so they do not
	// oscillate at the boundary.
	FloorMargin = 0.25
	// LatencyMargin is the hysteresis band below the latency target:
	// TargetLatency tightens semantics only while P99 stays under
	// target·(1−LatencyMargin).
	LatencyMargin = 0.25
	// MinLatencySamples is the minimum number of latency samples a tick
	// must observe for its P99 estimate to count as a signal; ticks with
	// fewer hold instead of acting (with the structures' 1-in-64
	// sampling, the default MinOpsPerTick already implies at least ~2).
	MinLatencySamples = 4
	// SymmetryBand bounds |push fraction − 0.5| for a Selector's storm to
	// count as symmetric (elimination-friendly).
	SymmetryBand = 0.1

	// defaultCooldown and defaultMinOpsPerTick are Policy's defaults and
	// a Selector's fixed values.
	defaultCooldown      = 2
	defaultMinOpsPerTick = 128
)

// Policy configures a Controller. Zero fields are defaulted at New (see
// DefaultPolicy); the zero value as a whole selects the MaxThroughput goal
// with an uncapped ladder sized for GOMAXPROCS.
type Policy struct {
	// Goal selects the objective; see the Goal constants.
	Goal Goal
	// KCeiling is the hard cap on the active geometry's Theorem 1 bound;
	// candidates above it are never applied. Zero means uncapped.
	KCeiling int64
	// ThroughputFloor is the ops/second the MinRelaxation goal defends.
	ThroughputFloor float64
	// LatencyTarget is the sampled-P99 operation latency the TargetLatency
	// goal drives toward; required (positive) for that goal, ignored by
	// the others.
	LatencyTarget time.Duration
	// Tick is the sampling interval of the background controller loop.
	// Default 10ms.
	Tick time.Duration
	// MinWidth/MaxWidth bound the horizontal knob. Defaults: 1 and
	// 4·GOMAXPROCS.
	MinWidth, MaxWidth int
	// MinDepth/MaxDepth bound the vertical knob (retuned geometries use
	// shift = depth, the paper's maximum-locality setting). Defaults: 8
	// and 512.
	MinDepth, MaxDepth int64
	// Cooldown is how many decision ticks the controller holds after a
	// reconfiguration before moving again, letting the signals resettle
	// on the new geometry. Default 2.
	Cooldown int
	// MinOpsPerTick is the minimum operation count a tick must observe to
	// be considered a signal; quieter ticks are recorded but never trigger
	// movement. Default 128.
	MinOpsPerTick uint64
}

// DefaultPolicy returns the fully defaulted zero policy.
func DefaultPolicy() Policy {
	return Policy{}.withDefaults()
}

func (p Policy) withDefaults() Policy {
	if p.Tick == 0 {
		p.Tick = 10 * time.Millisecond
	}
	if p.MinWidth == 0 {
		p.MinWidth = 1
	}
	if p.MaxWidth == 0 {
		p.MaxWidth = 4 * runtime.GOMAXPROCS(0)
	}
	if p.MinDepth == 0 {
		p.MinDepth = 8
	}
	if p.MaxDepth == 0 {
		p.MaxDepth = 512
	}
	if p.Cooldown == 0 {
		p.Cooldown = defaultCooldown
	}
	if p.MinOpsPerTick == 0 {
		p.MinOpsPerTick = defaultMinOpsPerTick
	}
	return p
}

// Validate reports whether the (defaulted) policy is coherent.
func (p Policy) Validate() error {
	switch {
	case p.MinWidth < 1:
		return fmt.Errorf("adapt: MinWidth must be >= 1, got %d", p.MinWidth)
	case p.MaxWidth < p.MinWidth:
		return fmt.Errorf("adapt: MaxWidth %d below MinWidth %d", p.MaxWidth, p.MinWidth)
	case p.MinDepth < 1:
		return fmt.Errorf("adapt: MinDepth must be >= 1, got %d", p.MinDepth)
	case p.MaxDepth < p.MinDepth:
		return fmt.Errorf("adapt: MaxDepth %d below MinDepth %d", p.MaxDepth, p.MinDepth)
	case p.Tick <= 0:
		return fmt.Errorf("adapt: Tick must be positive, got %v", p.Tick)
	case p.KCeiling < 0:
		return fmt.Errorf("adapt: KCeiling must be >= 0, got %d", p.KCeiling)
	case p.Goal == MinRelaxation && p.ThroughputFloor <= 0:
		return fmt.Errorf("adapt: MinRelaxation goal needs a positive ThroughputFloor")
	case p.Goal == MinEnergy && p.ThroughputFloor <= 0:
		return fmt.Errorf("adapt: MinEnergy goal needs a positive ThroughputFloor")
	case p.Goal == TargetLatency && p.LatencyTarget <= 0:
		return fmt.Errorf("adapt: TargetLatency goal needs a positive LatencyTarget")
	}
	return nil
}

// Reconfigurable is the structure the controller steers: anything that
// exposes a 2D window geometry, accepts live reconfiguration, and
// aggregates its handles' operation counters. It is satisfied by
// *core.Stack[T] and *twodqueue.Queue[T] for any T (both embed the window
// shell, core.Window, and the queue's Config is core.Config), and by the
// simulation adapters in cmd/adapttune — one controller implementation
// drives all of them, because the decision logic reads only the
// geometry-normalised signals, never the structure itself.
type Reconfigurable interface {
	Config() core.Config
	Reconfigure(core.Config) error
	StatsSnapshot() core.OpStats
}

// SocketAware is optionally implemented by Reconfigurables that place
// sub-structures on sockets (core.Stack, twodqueue.Queue and the
// simulation targets in cmd/adapttune all do). When the target advertises
// it, the controller routes every geometry change through
// ReconfigureOnSocket with the interval's CAS-pressure socket
// (core.OpStats.PressureSocket over the tick's delta, -1 when no CAS
// failure was attributed), so a LocalFirst placement policy homes new
// slots on — and shrinks away from — the socket that asked. Targets
// without placement simply don't implement it and see plain Reconfigure.
// See DESIGN.md §7.
type SocketAware interface {
	ReconfigureOnSocket(cfg core.Config, requester int) error
}

// TickRecord is one row of the controller's time series: the interval's
// signals and the geometry active after the decision. cmd/adapttune prints
// these as the paper-style convergence figures.
type TickRecord struct {
	Tick    int           // 0-based decision index
	Elapsed time.Duration // interval the signals were measured over

	Ops         uint64  // operations completed in the interval
	Throughput  float64 // ops/second over the interval
	CASPerOp    float64 // contention signal (→ width)
	MovesPerOp  float64 // window-churn signal (→ depth)
	ProbesPerOp float64 // search-cost signal (→ narrowing)
	EmptyFrac   float64 // fraction of pops that reported empty

	// LatencySamples is how many operations the structures latency-sampled
	// in the interval; P50/P99 are the percentile estimates from their
	// histogram (zero when no samples landed). EnergyPerOp is window moves
	// plus probes per operation — the work-per-op signal MinEnergy
	// minimises.
	LatencySamples uint64
	P50            time.Duration
	P99            time.Duration
	EnergyPerOp    float64

	// PressureSocket is the socket with the most CAS failures attributed
	// in the interval (-1 when none) — the requester reported to
	// SocketAware targets when this tick's decision changes the geometry.
	PressureSocket int

	// Action is what the decision did: "widen-width", "widen-depth",
	// "narrow-width", "narrow-depth", "hold", "cooldown" or "idle".
	Action string

	// Geometry active after the decision, and its Theorem 1 bound.
	Width int
	Depth int64
	Shift int64
	K     int64
}

// Observer receives one callback per completed control decision, after the
// TickRecord has been appended to the history. It runs on the controller's
// goroutine with the controller lock held, so implementations must be fast
// and must not call back into the controller. internal/obs provides the
// ring-buffer implementation (obs.TickTracer).
type Observer interface {
	ObserveTick(goal Goal, rec TickRecord)
}

// Controller drives a Reconfigurable's geometry from its observed signals. Create
// with New; run it in the background with Start/Stop, or call Step
// manually for deterministic control (tests, simulation).
type Controller struct {
	target Reconfigurable
	pol    Policy

	mu       sync.Mutex
	cooldown int
	prev     core.OpStats
	// pressure is the current tick's CAS-pressure socket, stashed by Step
	// for apply to hand to SocketAware targets; mu held.
	pressure int
	// obsv receives a callback per Step; nil — the default — costs one
	// predicted branch per tick (not per operation). Guarded by mu, which
	// Step holds at the emission point. See SetObserver and DESIGN.md §8.
	obsv    Observer
	hist    []TickRecord
	started bool
	stopCh  chan struct{}
	doneCh  chan struct{}
}

// New builds a controller for target; the policy is defaulted, then
// validated. KCeiling holds from construction: a target whose current
// geometry exceeds the ceiling is stepped down before New returns, with
// the controller's own moves (shallower depth first, then narrower width,
// within the policy's bounds), and New fails if the policy's minimum
// geometry still exceeds it. Otherwise the target keeps its current
// geometry until the first decision says otherwise.
func New(target Reconfigurable, pol Policy) (*Controller, error) {
	pol = pol.withDefaults()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{target: target, pol: pol, pressure: -1}
	for cur := target.Config(); !c.underCeiling(cur); cur = target.Config() {
		cand, ok := c.shallowerDepth(cur)
		if !ok {
			cand, ok = c.narrowerWidth(cur)
		}
		if !ok {
			return nil, fmt.Errorf("adapt: geometry %+v has k=%d above KCeiling %d and the policy allows no smaller one", cur, cur.K(), pol.KCeiling)
		}
		if err := target.Reconfigure(cand); err != nil {
			return nil, fmt.Errorf("adapt: clamping to KCeiling: %w", err)
		}
	}
	c.prev = target.StatsSnapshot()
	return c, nil
}

// Policy returns the defaulted policy the controller runs.
func (c *Controller) Policy() Policy { return c.pol }

// SetObserver installs (or, with nil, removes) the controller's tick
// observer. Safe to call while the background loop runs: the observer is
// read under the same lock Step holds, so a tick sees either the old or the
// new observer, never a torn state.
func (c *Controller) SetObserver(o Observer) {
	c.mu.Lock()
	c.obsv = o
	c.mu.Unlock()
}

// Start launches the background sampling loop. Repeated Starts are no-ops
// until Stop is called.
func (c *Controller) Start() {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.stopCh = make(chan struct{})
	c.doneCh = make(chan struct{})
	stop, done := c.stopCh, c.doneCh
	c.mu.Unlock()
	go c.run(stop, done)
}

// Stop halts the background loop and waits for it to exit. Safe to call
// when not started; idempotent.
func (c *Controller) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	stop, done := c.stopCh, c.doneCh
	c.mu.Unlock()
	close(stop)
	<-done
}

func (c *Controller) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tk := time.NewTicker(c.pol.Tick)
	defer tk.Stop()
	last := time.Now()
	for {
		select {
		case <-stop:
			return
		case now := <-tk.C:
			c.Step(now.Sub(last))
			last = now
		}
	}
}

// Step performs one control decision over an interval of the given length:
// sample, compute signals, possibly move one geometry knob one step, and
// append a TickRecord to the history (also returned). The background loop
// calls it once per tick; tests and simulators drive it manually.
func (c *Controller) Step(elapsed time.Duration) TickRecord {
	c.mu.Lock()
	defer c.mu.Unlock()

	snap := c.target.StatsSnapshot()
	d := snap.Sub(c.prev)
	c.prev = snap

	ops := d.Ops()
	rec := TickRecord{
		Tick:    len(c.hist),
		Elapsed: elapsed,
		Ops:     ops,
	}
	if elapsed > 0 {
		rec.Throughput = float64(ops) / elapsed.Seconds()
	}
	if ops > 0 {
		fo := float64(ops)
		rec.CASPerOp = float64(d.CASFailures) / fo
		rec.MovesPerOp = float64(d.WindowRaises+d.WindowLowers) / fo
		rec.ProbesPerOp = float64(d.Probes) / fo
		rec.EnergyPerOp = rec.MovesPerOp + rec.ProbesPerOp
		if pops := d.Pops + d.EmptyPops; pops > 0 {
			rec.EmptyFrac = float64(d.EmptyPops) / float64(pops)
		}
	}
	rec.LatencySamples = d.LatencySamples()
	if rec.LatencySamples > 0 {
		rec.P50 = d.LatencyPercentile(50)
		rec.P99 = d.LatencyPercentile(99)
	}
	rec.PressureSocket = d.PressureSocket()
	c.pressure = rec.PressureSocket

	rec.Action = c.decide(rec)

	cfg := c.target.Config()
	rec.Width, rec.Depth, rec.Shift, rec.K = cfg.Width, cfg.Depth, cfg.Shift, cfg.K()
	c.hist = append(c.hist, rec)
	// The tick event fires after any reconfiguration this decision applied,
	// so a drained trace reads causally: the structural events a decision
	// caused precede the tick that reported the decision.
	if c.obsv != nil {
		c.obsv.ObserveTick(c.pol.Goal, rec)
	}
	return rec
}

// decide applies the goal's rules to the interval signals; c.mu held.
func (c *Controller) decide(rec TickRecord) string {
	if rec.Ops < c.pol.MinOpsPerTick {
		return "idle"
	}
	if c.cooldown > 0 {
		c.cooldown--
		return "cooldown"
	}
	casDominant := rec.CASPerOp >= HighCAS
	churning := rec.MovesPerOp >= HighMoves
	quiet := rec.CASPerOp <= LowCAS && rec.MovesPerOp <= LowMoves
	switch c.pol.Goal {
	case MinRelaxation:
		if rec.Throughput < c.pol.ThroughputFloor {
			return c.widen(casDominant || !churning)
		}
		if rec.Throughput > c.pol.ThroughputFloor*(1+FloorMargin) {
			return c.narrowK()
		}
	case TargetLatency:
		if rec.LatencySamples < MinLatencySamples {
			return "hold"
		}
		if rec.P99 > c.pol.LatencyTarget {
			// Above target: relieve whatever is stretching the tail.
			if casDominant {
				return c.widen(true) // contention: widen
			}
			if churning {
				return c.widen(false) // window churn: deepen
			}
			if rec.ProbesPerOp >= HighProbes {
				return c.narrowWidth() // search cost: narrow
			}
			// A tail none of the structure's signals explain (e.g.
			// scheduler stalls) is not fixable by geometry: hold rather
			// than ratchet the window down for nothing.
			return "hold"
		}
		if float64(rec.P99) < float64(c.pol.LatencyTarget)*(1-LatencyMargin) && quiet {
			// Comfortably under target with quiet signals: spend the spare
			// latency budget on tighter semantics.
			return c.narrowK()
		}
	case MinEnergy:
		if rec.Throughput < c.pol.ThroughputFloor {
			return c.widen(casDominant || !churning)
		}
		if rec.Throughput > c.pol.ThroughputFloor*(1+FloorMargin) {
			// Headroom above the floor: reduce work per op. Window moves are
			// the global coordination events — deepen while they dominate;
			// then probes — narrow while searches are long.
			if rec.MovesPerOp >= HighMoves {
				return c.deepen()
			}
			if rec.ProbesPerOp >= HighProbes {
				return c.narrowWidth()
			}
		}
	default: // MaxThroughput
		if casDominant {
			return c.widen(true)
		}
		if churning {
			return c.widen(false)
		}
		if quiet && rec.ProbesPerOp >= HighProbes {
			return c.narrowWidth()
		}
	}
	return "hold"
}

// deepen grows only the vertical knob (MinEnergy's window-churn response:
// a deeper band means fewer global window moves per operation); c.mu held.
func (c *Controller) deepen() string {
	if cand, ok := c.deeperDepth(c.target.Config()); ok {
		return c.apply(cand, "widen-depth")
	}
	return "hold"
}

// widen grows the geometry one step: width first when contention is the
// dominant signal (or no signal points at depth), depth first otherwise,
// falling back to the other knob when the preferred one is capped by its
// bound or the k ceiling; c.mu held.
func (c *Controller) widen(widthFirst bool) string {
	cur := c.target.Config()
	widthUp, okW := c.widerWidth(cur)
	depthUp, okD := c.deeperDepth(cur)
	if widthFirst {
		if okW {
			return c.apply(widthUp, "widen-width")
		}
		if okD {
			return c.apply(depthUp, "widen-depth")
		}
	} else {
		if okD {
			return c.apply(depthUp, "widen-depth")
		}
		if okW {
			return c.apply(widthUp, "widen-width")
		}
	}
	return "hold"
}

// narrowWidth halves width (MaxThroughput's only narrowing move: it is
// what reduces search cost); falls back to shallower depth when width is
// already minimal; c.mu held.
func (c *Controller) narrowWidth() string {
	cur := c.target.Config()
	if cand, ok := c.narrowerWidth(cur); ok {
		return c.apply(cand, "narrow-width")
	}
	if cand, ok := c.shallowerDepth(cur); ok {
		return c.apply(cand, "narrow-depth")
	}
	return "hold"
}

// narrowK reduces the relaxation bound for MinRelaxation: shallower window
// first (k scales linearly in depth and the change needs no migration),
// then narrower width; c.mu held.
func (c *Controller) narrowK() string {
	cur := c.target.Config()
	if cand, ok := c.shallowerDepth(cur); ok {
		return c.apply(cand, "narrow-depth")
	}
	if cand, ok := c.narrowerWidth(cur); ok {
		return c.apply(cand, "narrow-width")
	}
	return "hold"
}

func (c *Controller) widerWidth(cur core.Config) (core.Config, bool) {
	cand := cur
	cand.Width *= 2
	if cand.Width > c.pol.MaxWidth {
		cand.Width = c.pol.MaxWidth
	}
	return cand, cand.Width > cur.Width && c.underCeiling(cand)
}

func (c *Controller) deeperDepth(cur core.Config) (core.Config, bool) {
	cand := cur
	cand.Depth *= 2
	if cand.Depth > c.pol.MaxDepth {
		cand.Depth = c.pol.MaxDepth
	}
	cand.Shift = cand.Depth
	return cand, cand.Depth > cur.Depth && c.underCeiling(cand)
}

func (c *Controller) narrowerWidth(cur core.Config) (core.Config, bool) {
	cand := cur
	cand.Width /= 2
	if cand.Width < c.pol.MinWidth {
		cand.Width = c.pol.MinWidth
	}
	return cand, cand.Width < cur.Width
}

func (c *Controller) shallowerDepth(cur core.Config) (core.Config, bool) {
	cand := cur
	cand.Depth /= 2
	if cand.Depth < c.pol.MinDepth {
		cand.Depth = c.pol.MinDepth
	}
	cand.Shift = cand.Depth
	return cand, cand.Depth < cur.Depth
}

func (c *Controller) underCeiling(cand core.Config) bool {
	return c.pol.KCeiling == 0 || cand.K() <= c.pol.KCeiling
}

// apply reconfigures the target and arms the cooldown; c.mu held. A
// SocketAware target additionally learns which socket's CAS pressure asked
// for the change, steering its placement policy.
func (c *Controller) apply(cfg core.Config, action string) string {
	var err error
	if sa, ok := c.target.(SocketAware); ok {
		err = sa.ReconfigureOnSocket(cfg, c.pressure)
	} else {
		err = c.target.Reconfigure(cfg)
	}
	if err != nil {
		return "error:" + err.Error()
	}
	c.cooldown = c.pol.Cooldown
	return action
}

// History returns a copy of the tick records accumulated so far.
func (c *Controller) History() []TickRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]TickRecord, len(c.hist))
	copy(out, c.hist)
	return out
}
