package main

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/sim"
)

// TestSimTargetConvergesUnderContention is the acceptance check of the
// adaptive subsystem in miniature, fully deterministic: on the simulated
// 16-core machine, a controller starting from a narrow window must widen
// it under contention, beat the static baseline's throughput, and never
// exceed the k ceiling.
func TestSimTargetConvergesUnderContention(t *testing.T) {
	const (
		kceil   = 4096
		p       = 16
		ticks   = 14
		horizon = 100000
	)
	start := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}

	static := &simTarget{machine: sim.DefaultMachine(), cfg: start}
	var staticOps uint64
	for i := 0; i < ticks; i++ {
		w, err := static.segment(p, horizon, uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		staticOps += w.Ops()
	}

	st := &simTarget{machine: sim.DefaultMachine(), cfg: start}
	ctrl, err := adapt.New(st, adapt.Policy{
		Goal:          adapt.MaxThroughput,
		KCeiling:      kceil,
		MinWidth:      start.Width,
		MaxWidth:      4 * p,
		MinDepth:      start.Depth,
		MaxDepth:      64,
		Cooldown:      1,
		MinOpsPerTick: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var adaptiveOps uint64
	for i := 0; i < ticks; i++ {
		w, err := st.segment(p, horizon, uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		adaptiveOps += w.Ops()
		rec := ctrl.Step(time.Duration(horizon))
		if rec.K > kceil {
			t.Fatalf("tick %d ran with k=%d above ceiling %d", rec.Tick, rec.K, kceil)
		}
	}

	if st.cfg.Width <= start.Width {
		t.Fatalf("controller did not widen under simulated contention (still width %d)", st.cfg.Width)
	}
	if st.cfg.K() > kceil {
		t.Fatalf("final geometry k=%d above ceiling", st.cfg.K())
	}
	if adaptiveOps <= staticOps {
		t.Fatalf("adaptive %d ops did not beat static %d ops", adaptiveOps, staticOps)
	}
	// The margin should be decisive, not marginal: contention collapse on
	// a narrow window is the paper's headline effect.
	if float64(adaptiveOps) < 2*float64(staticOps) {
		t.Fatalf("adaptive %d ops vs static %d ops: margin below 2x", adaptiveOps, staticOps)
	}
}

// TestSimTargetRejectsInvalidGeometry keeps the adapter honest: the
// controller relies on Reconfigure validating its candidates.
func TestSimTargetRejectsInvalidGeometry(t *testing.T) {
	st := &simTarget{machine: sim.DefaultMachine(), cfg: core.Config{Width: 2, Depth: 8, Shift: 8}}
	if err := st.Reconfigure(core.Config{Width: 0, Depth: 8, Shift: 8}); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	if st.cfg.Width != 2 {
		t.Fatal("failed Reconfigure mutated the geometry")
	}
}

// TestQueueSimTargetConvergesUnderContention is the queue-mode acceptance
// check, fully deterministic: on the simulated 16-core machine a controller
// starting from a narrow window must widen the 2D-Queue under contention,
// beat the static baseline decisively, and never exceed the k ceiling on
// any tick.
func TestQueueSimTargetConvergesUnderContention(t *testing.T) {
	const (
		kceil   = 4096
		p       = 16
		ticks   = 14
		horizon = 100000
	)
	start := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}

	static := &simTarget{machine: sim.DefaultMachine(), cfg: start, seg: sim.TwoDQueueSegment}
	var staticOps uint64
	for i := 0; i < ticks; i++ {
		w, err := static.segment(p, horizon, uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		staticOps += w.Ops()
	}

	st := &simTarget{machine: sim.DefaultMachine(), cfg: start, seg: sim.TwoDQueueSegment}
	ctrl, err := adapt.New(st, adapt.Policy{
		Goal:          adapt.MaxThroughput,
		KCeiling:      kceil,
		MinWidth:      start.Width,
		MaxWidth:      4 * p,
		MinDepth:      start.Depth,
		MaxDepth:      64,
		Cooldown:      1,
		MinOpsPerTick: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var adaptiveOps uint64
	for i := 0; i < ticks; i++ {
		w, err := st.segment(p, horizon, uint64(i)+1)
		if err != nil {
			t.Fatal(err)
		}
		adaptiveOps += w.Ops()
		rec := ctrl.Step(time.Duration(horizon))
		if rec.K > kceil {
			t.Fatalf("tick %d ran with k=%d above ceiling %d", rec.Tick, rec.K, kceil)
		}
	}

	if st.cfg.Width <= start.Width {
		t.Fatalf("controller did not widen the queue under simulated contention (still width %d)", st.cfg.Width)
	}
	if st.cfg.K() > kceil {
		t.Fatalf("final geometry k=%d above ceiling", st.cfg.K())
	}
	if float64(adaptiveOps) < 2*float64(staticOps) {
		t.Fatalf("adaptive %d ops vs static %d ops: margin below 2x", adaptiveOps, staticOps)
	}
}

// TestSimLatencyGoalConverges is the deterministic acceptance check of the
// latency control plane: on the simulated 16-core machine, a TargetLatency
// controller starting from a narrow window under heavy contention must pull
// the sampled P99 down to the target (the narrow start violates it badly)
// without ever exceeding the k ceiling — for both structures.
func TestSimLatencyGoalConverges(t *testing.T) {
	const (
		kceil   = 8192
		p       = 16
		ticks   = 14
		horizon = 100000
		target  = 4096 * time.Nanosecond // cycles read as ns
	)
	start := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}
	for name, seg := range map[string]segmentFunc{"stack": nil, "queue": sim.TwoDQueueSegment} {
		st := &simTarget{machine: sim.DefaultMachine(), cfg: start, seg: seg}
		ctrl, err := adapt.New(st, adapt.Policy{
			Goal:          adapt.TargetLatency,
			LatencyTarget: target,
			KCeiling:      kceil,
			MinWidth:      start.Width,
			MaxWidth:      4 * p,
			MinDepth:      start.Depth,
			MaxDepth:      64,
			Cooldown:      1,
			MinOpsPerTick: 16,
		})
		if err != nil {
			t.Fatal(err)
		}
		var first, last adapt.TickRecord
		for i := 0; i < ticks; i++ {
			if _, err := st.segment(p, horizon, uint64(i)+1); err != nil {
				t.Fatal(err)
			}
			rec := ctrl.Step(time.Duration(horizon))
			if rec.K > kceil {
				t.Fatalf("%s: tick %d ran with k=%d above ceiling %d", name, rec.Tick, rec.K, kceil)
			}
			if i == 0 {
				first = rec
			}
			last = rec
		}
		if first.P99 <= target {
			t.Fatalf("%s: narrow start already met the target (P99 %v) — the test shows nothing", name, first.P99)
		}
		if last.P99 > target {
			t.Fatalf("%s: controller did not converge: final P99 %v above target %v (geometry %dx%d)",
				name, last.P99, target, last.Width, last.Depth)
		}
		if st.cfg.Width <= start.Width {
			t.Fatalf("%s: controller never widened under the contended tail", name)
		}
	}
}

// TestSimEnergyGoalReducesWorkPerOp: the MinEnergy controller must end a
// contended run with cheaper operations (window moves + probes per op) than
// the narrow start geometry, while holding the throughput floor.
func TestSimEnergyGoalReducesWorkPerOp(t *testing.T) {
	const (
		p       = 16
		ticks   = 14
		horizon = 100000
		floor   = 2e7 // ops/s with 1 cycle = 1ns
	)
	start := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}
	for name, seg := range map[string]segmentFunc{"stack": nil, "queue": sim.TwoDQueueSegment} {
		st := &simTarget{machine: sim.DefaultMachine(), cfg: start, seg: seg}
		ctrl, err := adapt.New(st, adapt.Policy{
			Goal:            adapt.MinEnergy,
			ThroughputFloor: floor,
			MinWidth:        start.Width,
			MaxWidth:        4 * p,
			MinDepth:        start.Depth,
			MaxDepth:        512,
			Cooldown:        1,
			MinOpsPerTick:   16,
		})
		if err != nil {
			t.Fatal(err)
		}
		var first, last adapt.TickRecord
		for i := 0; i < ticks; i++ {
			if _, err := st.segment(p, horizon, uint64(i)+1); err != nil {
				t.Fatal(err)
			}
			rec := ctrl.Step(time.Duration(horizon))
			if i == 0 {
				first = rec
			}
			last = rec
		}
		if last.EnergyPerOp >= first.EnergyPerOp {
			t.Fatalf("%s: energy/op did not improve: %.2f -> %.2f", name, first.EnergyPerOp, last.EnergyPerOp)
		}
		if last.Throughput < floor {
			t.Fatalf("%s: final throughput %.0f under the floor %.0f", name, last.Throughput, floor)
		}
	}
}

// TestCSVSchemaDocumented keeps README.md's column table in lockstep with
// the emitted header: every column must be documented, in order, and no
// documented column may be missing from the code.
func TestCSVSchemaDocumented(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatalf("cmd/adapttune/README.md must exist and document the -csv schema: %v", err)
	}
	// Collect the `column` cells of the schema table: lines of the form
	// "| `name` | ... |" after the schema heading.
	var documented []string
	inSchema, inTable := false, false
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.Contains(line, "`-csv` column schema") {
			inSchema = true
			continue
		}
		if !inSchema {
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			if inTable && !strings.HasPrefix(line, "|") {
				break // the schema table ended; ignore any later tables
			}
			continue
		}
		inTable = true
		cell := strings.TrimPrefix(line, "| `")
		if i := strings.Index(cell, "`"); i > 0 {
			documented = append(documented, cell[:i])
		}
	}
	if len(documented) != len(csvHeader) {
		t.Fatalf("README documents %d columns %v, the sink writes %d %v",
			len(documented), documented, len(csvHeader), csvHeader)
	}
	for i, col := range csvHeader {
		if documented[i] != col {
			t.Fatalf("README column %d is %q, sink writes %q", i, documented[i], col)
		}
	}
}

// TestCSVSinkWritesTimeSeries pins the -csv output format so CI can consume
// it without it silently rotting.
func TestCSVSinkWritesTimeSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ts.csv")
	sink, err := newCSVSink(path)
	if err != nil {
		t.Fatal(err)
	}
	sink.record("sim-queue", "high", adapt.TickRecord{
		Tick: 3, Width: 8, Depth: 16, Shift: 16, K: 336,
		Ops: 1000, Throughput: 123.4, CASPerOp: 0.05, MovesPerOp: 0.01, ProbesPerOp: 2.5,
		P99: 1500 * time.Nanosecond, EnergyPerOp: 2.51,
		Action: "widen-width",
	})
	sink.recordSelector("native-backend", adapt.SelectorRecord{
		Tick: 7, Ops: 4096, Throughput: 98765.4, CASPerOp: 0.02,
		Action: "swap", Reason: "k-budget-zero", Backend: "treiber", K: 0,
	})
	// A nil sink must be a silent no-op (the demos call it unconditionally).
	var nilSink *csvSink
	nilSink.record("x", "", adapt.TickRecord{})
	if err := nilSink.close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.close(); err != nil { // idempotent
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want header + 2", len(rows))
	}
	wantHeader := []string{"experiment", "phase", "tick", "width", "depth", "shift", "k",
		"ops", "throughput", "cas_per_op", "moves_per_op", "probes_per_op",
		"p99_us", "energy_per_op", "action", "backend", "reason"}
	for i, col := range wantHeader {
		if rows[0][i] != col {
			t.Fatalf("header[%d] = %q, want %q", i, rows[0][i], col)
		}
	}
	if len(rows[0]) != len(wantHeader) {
		t.Fatalf("header has %d columns, want %d", len(rows[0]), len(wantHeader))
	}
	if rows[1][0] != "sim-queue" || rows[1][1] != "high" || rows[1][6] != "336" ||
		rows[1][12] != "1.500" || rows[1][13] != "2.510" || rows[1][14] != "widen-width" ||
		rows[1][15] != "" || rows[1][16] != "" {
		t.Fatalf("controller data row mismatch: %v", rows[1])
	}
	if rows[2][0] != "native-backend" || rows[2][2] != "7" || rows[2][3] != "" ||
		rows[2][6] != "0" || rows[2][7] != "4096" || rows[2][14] != "swap" ||
		rows[2][15] != "treiber" || rows[2][16] != "k-budget-zero" {
		t.Fatalf("selector data row mismatch: %v", rows[2])
	}
}

// TestBackendDemoDeterministicSwap runs the -backend auto experiment at
// test scale and requires the full gate to hold: the mid-run budget
// collapse evicts the relaxed backend for reason k-budget-zero, a strict
// backend finishes the run, and the recorded history verifies under the
// swap-aware budget — backendDemo returns false on any miss, so one
// boolean covers all three. This is the same gate CI drives through the
// binary; a nil sink and nil plane keep it output-only.
func TestBackendDemoDeterministicSwap(t *testing.T) {
	start := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}
	if !backendDemo(start, 4, 40*time.Millisecond, 5*time.Millisecond, 512, 11, nil, nil) {
		t.Fatal("backendDemo reported failure (see output above)")
	}
}
