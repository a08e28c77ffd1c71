package adapt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stack2d/internal/core"
)

// fakeTarget lets tests feed the controller synthetic signals and observe
// the reconfigurations it issues.
type fakeTarget struct {
	cfg       core.Config
	stats     core.OpStats
	reconfigs []core.Config
}

func (f *fakeTarget) Config() core.Config { return f.cfg }
func (f *fakeTarget) Reconfigure(cfg core.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	f.cfg = cfg
	f.reconfigs = append(f.reconfigs, cfg)
	return nil
}
func (f *fakeTarget) StatsSnapshot() core.OpStats { return f.stats }

// feed advances the fake's counters by one interval of the given shape.
func (f *fakeTarget) feed(ops uint64, casPerOp, movesPerOp, probesPerOp float64) {
	f.stats.Pushes += ops / 2
	f.stats.Pops += ops - ops/2
	f.stats.CASFailures += uint64(float64(ops) * casPerOp)
	f.stats.WindowRaises += uint64(float64(ops) * movesPerOp)
	f.stats.Probes += uint64(float64(ops) * probesPerOp)
}

// feedLatency adds latency samples at the given duration to the interval.
func (f *fakeTarget) feedLatency(samples uint64, d time.Duration) {
	f.stats.Latency[core.LatencyBucket(d)] += samples
}

func testPolicy(goal Goal) Policy {
	return Policy{
		Goal:     goal,
		MinWidth: 1, MaxWidth: 8,
		MinDepth: 8, MaxDepth: 32,
		Cooldown:        1,
		MinOpsPerTick:   10,
		ThroughputFloor: 1000,
	}
}

func TestContentionWidensWidthToCapThenDepth(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	var widths []int
	for i := 0; i < 40; i++ {
		f.feed(1000, 0.5, 0, 2)
		rec := c.Step(10 * time.Millisecond)
		if rec.Action == "widen-width" || rec.Action == "widen-depth" {
			widths = append(widths, rec.Width)
		}
	}
	// Width doubles monotonically to the cap, then depth takes over.
	cfg := f.cfg
	if cfg.Width != 8 || cfg.Depth != 32 {
		t.Fatalf("sustained contention ended at %+v, want width 8 depth 32", cfg)
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] < widths[i-1] {
			t.Fatalf("width moved non-monotonically: %v", widths)
		}
	}
	// Saturated at every cap: further pressure holds.
	f.feed(1000, 0.5, 0.5, 2)
	c.Step(10 * time.Millisecond) // burns any remaining cooldown
	f.feed(1000, 0.5, 0.5, 2)
	c.Step(10 * time.Millisecond)
	f.feed(1000, 0.5, 0.5, 2)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "hold" {
		t.Fatalf("expected hold at the caps, got %q", rec.Action)
	}
}

func TestWindowChurnDeepensDepth(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	// No CAS contention, heavy window churn: the depth knob moves, width
	// stays (until depth is capped).
	f.feed(1000, 0, 0.05, 1.2)
	rec := c.Step(10 * time.Millisecond)
	if rec.Action != "widen-depth" {
		t.Fatalf("expected widen-depth, got %q", rec.Action)
	}
	if f.cfg.Width != 2 || f.cfg.Depth != 16 || f.cfg.Shift != 16 {
		t.Fatalf("after churn tick config = %+v", f.cfg)
	}
}

func TestCeilingIsNeverExceeded(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 2}}
	pol := testPolicy(MaxThroughput)
	pol.KCeiling = 100 // width 2 @ depth 8 is k=24; width 4 is 72; width 8 is 168
	c, err := New(f, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		f.feed(1000, 0.5, 0.05, 2) // both widen signals, forever
		rec := c.Step(10 * time.Millisecond)
		if rec.K > pol.KCeiling {
			t.Fatalf("tick %d: K %d exceeds ceiling %d", i, rec.K, pol.KCeiling)
		}
	}
	if got := f.cfg.K(); got > pol.KCeiling {
		t.Fatalf("final K %d above ceiling", got)
	}
	if got := f.cfg; got.Width != 4 || got.Depth != 8 {
		// width 4, depth 8 (k=72) is the largest admissible geometry:
		// width 8 (k=168) and depth 16 at width 4 (k=144) both violate.
		t.Fatalf("final config %+v, want width 4 depth 8", got)
	}
}

func TestQuietWideStructureNarrows(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f.feed(1000, 0, 0, 10) // no contention, no churn, expensive searches
		c.Step(10 * time.Millisecond)
	}
	if f.cfg.Width != 1 {
		t.Fatalf("quiet wide structure ended at width %d, want 1", f.cfg.Width)
	}

	// Quiet and cheap: hold.
	before := len(f.reconfigs)
	for i := 0; i < 5; i++ {
		f.feed(1000, 0, 0, 1.2)
		if rec := c.Step(10 * time.Millisecond); rec.Action != "hold" {
			t.Fatalf("expected hold, got %q", rec.Action)
		}
	}
	if len(f.reconfigs) != before {
		t.Fatal("controller reconfigured during a hold phase")
	}
}

func TestIdleTicksNeverMove(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		f.feed(5, 1.0, 1.0, 100) // huge signals, but only 5 ops (< MinOpsPerTick)
		if rec := c.Step(10 * time.Millisecond); rec.Action != "idle" {
			t.Fatalf("expected idle, got %q", rec.Action)
		}
	}
	if len(f.reconfigs) != 0 {
		t.Fatalf("idle ticks issued %d reconfigs", len(f.reconfigs))
	}
}

func TestMinRelaxationHoldsFloor(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 8, Depth: 32, Shift: 32, RandomHops: 2}}
	pol := testPolicy(MinRelaxation)
	c, err := New(f, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Throughput far above floor: narrow toward strict (depth first, then
	// width), monotonically.
	prevK := f.cfg.K()
	for i := 0; i < 40; i++ {
		f.feed(1000, 0, 0, 2) // 1000 ops / 10ms = 100k ops/s >> floor 1000
		rec := c.Step(10 * time.Millisecond)
		if rec.K > prevK {
			t.Fatalf("tick %d: K rose from %d to %d during narrowing", i, prevK, rec.K)
		}
		prevK = rec.K
	}
	if f.cfg.Width != 1 || f.cfg.Depth != 8 {
		t.Fatalf("easy load ended at %+v, want the minimal geometry", f.cfg)
	}
	// Throughput below floor: widen again.
	for i := 0; i < 6; i++ {
		f.feed(11, 0.5, 0, 2) // 11 ops / 100ms = 110 ops/s < floor
		c.Step(100 * time.Millisecond)
	}
	if f.cfg.K() == 0 {
		t.Fatal("controller did not widen when throughput fell below the floor")
	}
}

// TestTargetLatencySteersByDominantSignal drives the latency goal through
// its three above-target responses and the below-target tightening path.
func TestTargetLatencySteersByDominantSignal(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}}
	pol := testPolicy(TargetLatency)
	pol.LatencyTarget = time.Millisecond
	c, err := New(f, pol)
	if err != nil {
		t.Fatal(err)
	}
	over := 4 * time.Millisecond    // whole bucket above the target
	under := 100 * time.Microsecond // whole bucket below target·(1−margin)

	// Tail over target with contention dominant: widen width.
	f.feed(1000, 0.5, 0, 2)
	f.feedLatency(100, over)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "widen-width" {
		t.Fatalf("contended tail: got %q, want widen-width", rec.Action)
	}
	f.feed(1000, 0, 0, 2) // burn cooldown
	f.feedLatency(100, under)
	c.Step(10 * time.Millisecond)

	// Tail over target with window churn dominant: deepen.
	f.feed(1000, 0, 0.05, 2)
	f.feedLatency(100, over)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "widen-depth" {
		t.Fatalf("churning tail: got %q, want widen-depth", rec.Action)
	}
	f.feed(1000, 0, 0, 2)
	f.feedLatency(100, under)
	c.Step(10 * time.Millisecond)

	// Tail over target with quiet signals and expensive searches: narrow.
	f.feed(1000, 0, 0, 8)
	f.feedLatency(100, over)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "narrow-width" {
		t.Fatalf("search-cost tail: got %q, want narrow-width", rec.Action)
	}
	f.feed(1000, 0, 0, 2)
	f.feedLatency(100, under)
	c.Step(10 * time.Millisecond)

	// Tail over target that NO structural signal explains (quiet, cheap
	// searches — e.g. scheduler stalls): hold, don't ratchet the window.
	f.feed(1000, 0, 0, 1.2)
	f.feedLatency(100, over)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "hold" {
		t.Fatalf("unexplained tail: got %q, want hold", rec.Action)
	}

	// Comfortably under target and quiet: spend the budget on tighter k.
	kBefore := f.cfg.K()
	f.feed(1000, 0, 0, 2)
	f.feedLatency(100, under)
	rec := c.Step(10 * time.Millisecond)
	if rec.Action != "narrow-depth" && rec.Action != "narrow-width" {
		t.Fatalf("latency headroom: got %q, want a narrowing move", rec.Action)
	}
	if f.cfg.K() >= kBefore && kBefore > 0 {
		t.Fatalf("k did not tighten under latency headroom: %d -> %d", kBefore, f.cfg.K())
	}

	// Too few samples: hold regardless of the estimate.
	f.feed(1000, 0.5, 0, 2)
	f.feedLatency(1, over)
	c.Step(10 * time.Millisecond) // burn cooldown
	f.feed(1000, 0.5, 0, 2)
	f.feedLatency(1, over)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "hold" {
		t.Fatalf("starved sampler: got %q, want hold", rec.Action)
	}
}

// TestMinEnergyReducesWorkAboveFloor: with throughput headroom the energy
// goal deepens away window churn, then narrows away search cost, and it
// widens again the moment throughput drops below the floor.
func TestMinEnergyReducesWorkAboveFloor(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MinEnergy))
	if err != nil {
		t.Fatal(err)
	}
	// 1000 ops / 10ms = 100k ops/s, far above the 1000 floor; churn high.
	f.feed(1000, 0, 0.05, 2)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "widen-depth" {
		t.Fatalf("churn above floor: got %q, want widen-depth", rec.Action)
	}
	f.feed(1000, 0, 0, 2)
	c.Step(10 * time.Millisecond) // cooldown
	// Churn gone, searches expensive: narrow.
	f.feed(1000, 0, 0, 8)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "narrow-width" {
		t.Fatalf("search cost above floor: got %q, want narrow-width", rec.Action)
	}
	f.feed(1000, 0, 0, 2)
	c.Step(10 * time.Millisecond) // cooldown
	// Cheap and above floor: hold.
	f.feed(1000, 0, 0, 1.5)
	if rec := c.Step(10 * time.Millisecond); rec.Action != "hold" {
		t.Fatalf("cheap ops above floor: got %q, want hold", rec.Action)
	}
	// Below the floor: defend it.
	f.feed(11, 0.5, 0, 2) // 110 ops/s < 1000
	if rec := c.Step(100 * time.Millisecond); rec.Action != "widen-width" && rec.Action != "widen-depth" {
		t.Fatalf("below floor: got %q, want a widening move", rec.Action)
	}
}

// TestTickRecordCarriesLatencyAndEnergy: the new signal fields flow into
// the history.
func TestTickRecordCarriesLatencyAndEnergy(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	f.feed(1000, 0, 0.01, 3)
	f.feedLatency(64, 500*time.Microsecond)
	rec := c.Step(10 * time.Millisecond)
	if rec.LatencySamples != 64 {
		t.Fatalf("LatencySamples = %d, want 64", rec.LatencySamples)
	}
	if rec.P99 < 262144 || rec.P99 > 524288 { // the 500µs bucket
		t.Fatalf("P99 = %v outside the fed bucket", rec.P99)
	}
	if rec.P50 <= 0 || rec.P50 > rec.P99 {
		t.Fatalf("P50 = %v inconsistent with P99 %v", rec.P50, rec.P99)
	}
	if want := rec.MovesPerOp + rec.ProbesPerOp; rec.EnergyPerOp != want {
		t.Fatalf("EnergyPerOp = %g, want moves+probes = %g", rec.EnergyPerOp, want)
	}
}

func TestHistoryRecordsSeries(t *testing.T) {
	f := &fakeTarget{cfg: core.Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 2}}
	c, err := New(f, testPolicy(MaxThroughput))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		f.feed(1000, 0.5, 0.01, 3)
		c.Step(10 * time.Millisecond)
	}
	h := c.History()
	if len(h) != 7 {
		t.Fatalf("history length %d, want 7", len(h))
	}
	for i, rec := range h {
		if rec.Tick != i {
			t.Fatalf("record %d has Tick %d", i, rec.Tick)
		}
		if rec.Ops != 1000 {
			t.Fatalf("record %d Ops = %d", i, rec.Ops)
		}
		if rec.K != (2*rec.Depth+rec.Shift)*int64(rec.Width-1) {
			t.Fatalf("record %d K %d inconsistent with geometry", i, rec.K)
		}
		if rec.CASPerOp == 0 || rec.MovesPerOp == 0 {
			t.Fatalf("record %d lost signals: %+v", i, rec)
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := New(&fakeTarget{cfg: core.DefaultConfig(1)}, Policy{Goal: MinRelaxation}); err == nil {
		t.Fatal("MinRelaxation without a floor was accepted")
	}
	pol := testPolicy(MaxThroughput)
	pol.MaxWidth = 2
	pol.MinWidth = 4
	if _, err := New(&fakeTarget{cfg: core.DefaultConfig(1)}, pol); err == nil {
		t.Fatal("MaxWidth < MinWidth was accepted")
	}
	if _, err := New(&fakeTarget{cfg: core.DefaultConfig(1)}, Policy{Goal: TargetLatency}); err == nil {
		t.Fatal("TargetLatency without a LatencyTarget was accepted")
	}
	pol = Policy{Goal: MinEnergy}
	if _, err := New(&fakeTarget{cfg: core.DefaultConfig(1)}, pol); err == nil {
		t.Fatal("MinEnergy without a ThroughputFloor was accepted")
	}
}

// TestControllerLive runs the background loop against a real stack under
// real load and checks the ceiling holds and the structure stays
// consistent whatever the machine's contention profile is.
func TestControllerLive(t *testing.T) {
	s := core.MustNew[uint64](core.Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 1})
	pol := Policy{
		Goal:     MaxThroughput,
		KCeiling: 4096,
		Tick:     2 * time.Millisecond,
		MinWidth: 1, MaxWidth: 16,
		MinDepth: 8, MaxDepth: 64,
		MinOpsPerTick: 64,
	}
	c, err := New(s, pol)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Start() // idempotent
	defer c.Stop()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := s.NewHandle()
			label := uint64(id+1) << 40
			for !stop.Load() {
				label++
				h.Push(label)
				h.Pop()
			}
		}(i)
	}
	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	c.Stop()
	c.Stop() // idempotent

	hist := c.History()
	if len(hist) == 0 {
		t.Fatal("controller recorded no ticks")
	}
	for _, rec := range hist {
		if rec.K > pol.KCeiling {
			t.Fatalf("tick %d exceeded ceiling: K=%d", rec.Tick, rec.K)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
