package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"stack2d/internal/core"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fakeSource is a deterministic Source/ShrinkReporter for rendering tests.
type fakeSource struct {
	stats core.OpStats
	cfg   core.Config
	disp  int64
}

func (f *fakeSource) StatsSnapshot() core.OpStats { return f.stats }
func (f *fakeSource) Config() core.Config         { return f.cfg }
func (f *fakeSource) ShrinkDisplacementBound() int64 {
	return f.disp
}

// fixtureRegistry builds a registry over a fake structure with known
// counters, stepping an injected clock past the cache window so the rate
// gauges read a deterministic 1-second interval.
func fixtureRegistry() *Registry {
	src := &fakeSource{cfg: core.Config{Width: 8, Depth: 64, Shift: 64, RandomHops: 2}, disp: 17}
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }

	reg := NewRegistry()
	RegisterStructure(reg, "stack", src, clock)

	// One second of synthetic work after registration: rates become
	// totals-per-second exactly.
	src.stats = core.OpStats{
		Pushes: 60000, Pops: 30000, EmptyPops: 10000,
		Probes: 150000, RandomHops: 40000, CASFailures: 20000,
		WindowRaises: 500, WindowLowers: 100, Restarts: 900,
	}
	src.stats.SocketCAS[0] = 15000
	src.stats.SocketCAS[1] = 5000
	src.stats.Latency[core.LatencyBucket(300)] = 99 // [256,512) ns
	src.stats.Latency[core.LatencyBucket(100000)] = 1
	now = now.Add(time.Second)

	ring := NewRing(16)
	for i := 0; i < 20; i++ {
		ring.Emit(Event{Kind: KindTick, Time: now, Tick: i})
	}
	RegisterRing(reg, ring)
	return reg
}

// TestPromGolden pins the full Prometheus text rendering — family headers,
// sort order, label spelling, histogram le bounds, value formatting —
// against testdata/metrics.golden. Regenerate with `go test -run
// TestPromGolden -update ./internal/obs/`.
func TestPromGolden(t *testing.T) {
	got := fixtureRegistry().Render()
	path := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Prometheus rendering drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPromRenderingProperties checks the exposition-format invariants that
// must hold for any registry, independent of the golden fixture.
func TestPromRenderingProperties(t *testing.T) {
	out := fixtureRegistry().Render()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	seenHelp := map[string]bool{}
	var lastName string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "# HELP ") {
			name := strings.Fields(ln)[2]
			if seenHelp[name] {
				t.Fatalf("family %s rendered HELP twice", name)
			}
			seenHelp[name] = true
			if name < lastName {
				t.Fatalf("families out of order: %s after %s", name, lastName)
			}
			lastName = name
		}
	}
	// Histogram invariants: cumulative buckets, +Inf matches _count.
	if !strings.Contains(out, `stack2d_stack_latency_ns_bucket{le="+Inf"} 100`) {
		t.Fatalf("missing +Inf bucket with total count:\n%s", out)
	}
	if !strings.Contains(out, "stack2d_stack_latency_ns_count 100") {
		t.Fatal("histogram _count missing or wrong")
	}
	// The interval gauges computed from the synthetic 1-second delta.
	if !strings.Contains(out, "stack2d_stack_throughput_ops 100000") {
		t.Fatalf("throughput gauge missing or wrong:\n%s", out)
	}
	if !strings.Contains(out, "stack2d_stack_cas_per_op 0.2") {
		t.Fatal("cas_per_op gauge missing or wrong")
	}
	if !strings.Contains(out, "stack2d_stack_k_bound 1344") {
		t.Fatal("k_bound gauge missing or wrong (want (2*64+64)*(8-1))")
	}
	if !strings.Contains(out, "stack2d_stack_shrink_displacement_bound 17") {
		t.Fatal("shrink displacement gauge missing")
	}
	if !strings.Contains(out, "stack2d_obs_events_emitted_total 20") ||
		!strings.Contains(out, "stack2d_obs_events_dropped_total 4") {
		t.Fatal("tracer meta-metrics missing or wrong")
	}
}

// TestSentinelSurfacesAsMinusOne: an interval with no latency samples
// exports P50/P99 as -1, never as a fake sub-nanosecond estimate.
func TestSentinelSurfacesAsMinusOne(t *testing.T) {
	src := &fakeSource{cfg: core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}}
	now := time.Unix(0, 0)
	reg := NewRegistry()
	RegisterStructure(reg, "queue", src, func() time.Time { return now })
	src.stats.Pushes = 1000 // work, but no latency samples
	now = now.Add(time.Second)
	out := reg.Render()
	if !strings.Contains(out, "stack2d_queue_latency_p50_ns -1") ||
		!strings.Contains(out, "stack2d_queue_latency_p99_ns -1") {
		t.Fatalf("unsampled interval did not surface the -1 sentinel:\n%s", out)
	}
}

// TestExpvarSnapshot checks the expvar surface renders the same values
// under name{labels} keys without going through expvar.Publish (which is
// process-global and once-per-name).
func TestExpvarSnapshot(t *testing.T) {
	snap, ok := fixtureRegistry().ExpvarSnapshot().(map[string]any)
	if !ok {
		t.Fatal("ExpvarSnapshot is not a map")
	}
	if v := snap["stack2d_stack_pushes_total"]; v != float64(60000) {
		t.Fatalf("pushes_total = %v, want 60000", v)
	}
	if v := snap[`stack2d_stack_socket_cas_total{socket="1"}`]; v != float64(5000) {
		t.Fatalf("labelled socket counter = %v, want 5000", v)
	}
	hist, ok := snap["stack2d_stack_latency_ns"].([]uint64)
	if !ok || len(hist) != core.NumLatencyBuckets {
		t.Fatalf("histogram snapshot missing or wrong length: %v", snap["stack2d_stack_latency_ns"])
	}
}
