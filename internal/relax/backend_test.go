package relax

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"stack2d/internal/core"
)

// TestCatalogueAudit is the catalogue's completeness gate: every algorithm
// in AllAlgorithms has a default backend, the backend agrees with the
// catalogue about its identity and its semantics budget, and the String
// spelling round-trips through ParseAlgorithm. Adding an Algorithm
// constant without wiring a backend (or vice versa) fails here.
func TestCatalogueAudit(t *testing.T) {
	if len(AllAlgorithms()) != 9 {
		t.Fatalf("catalogue has %d entries, want 9", len(AllAlgorithms()))
	}
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			got, err := ParseAlgorithm(a.String())
			if err != nil || got != a {
				t.Errorf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
			}
			b, err := NewDefaultBackend[int](a, 4)
			if err != nil {
				t.Fatalf("NewDefaultBackend: %v", err)
			}
			if b.Algorithm() != a {
				t.Errorf("backend.Algorithm() = %v", b.Algorithm())
			}
			if bounded := b.KBound() >= 0; bounded != a.KBounded() {
				t.Errorf("KBound() = %d but KBounded() = %v", b.KBound(), a.KBounded())
			}
			if a.KConfigurable() && b.KBound() < 0 {
				t.Errorf("k-configurable algorithm with unbounded backend")
			}
		})
	}
	if _, err := ParseAlgorithm("no-such-structure"); err == nil {
		t.Error("ParseAlgorithm accepted an unknown name")
	}
	if _, err := NewDefaultBackend[int](Algorithm(99), 4); err == nil {
		t.Error("NewDefaultBackend accepted an unknown algorithm")
	}
}

// TestNewBackendForKAppliesTheMappings pins the one rule from (algorithm,
// k, P) to a structure: a k-configurable algorithm gets its k mapping (a
// bound within the budget, different budgets building different
// geometries), every other one its P default whatever k is.
func TestNewBackendForKAppliesTheMappings(t *testing.T) {
	const p = 4
	for _, a := range AllAlgorithms() {
		small, err := NewBackendForK[int](a, 16, p)
		if err != nil {
			t.Fatal(err)
		}
		large, err := NewBackendForK[int](a, 4096, p)
		if err != nil {
			t.Fatal(err)
		}
		def, err := NewDefaultBackend[int](a, p)
		if err != nil {
			t.Fatal(err)
		}
		if small.Algorithm() != a || large.Algorithm() != a {
			t.Errorf("%v: built %v and %v", a, small.Algorithm(), large.Algorithm())
		}
		if !a.KConfigurable() {
			if small.KBound() != def.KBound() || large.KBound() != def.KBound() {
				t.Errorf("%v: KBound %d and %d at k=16 and k=4096, want the P default's %d",
					a, small.KBound(), large.KBound(), def.KBound())
			}
			continue
		}
		if small.KBound() > 16 || large.KBound() > 4096 || small.KBound() >= large.KBound() {
			t.Errorf("%v: KBound %d at k=16 and %d at k=4096, want within budget and growing",
				a, small.KBound(), large.KBound())
		}
	}
}

// TestUncountedHandlesPublishNothing keeps the counting adapters' cost out
// of throughput measurements: operations through NewUncountedHandle reach
// no backend's StatsSnapshot, except the 2D-Stack's and the 2D-Queue's,
// whose own handles count in the window registry as they always have.
func TestUncountedHandlesPublishNothing(t *testing.T) {
	for _, a := range AllAlgorithms() {
		b, err := NewDefaultBackend[int](a, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := NewUncountedHandle(b)
		for i := 0; i < 300; i++ { // > the 64-operation flush interval
			h.Push(i)
		}
		for i := 0; i < 301; i++ {
			h.Pop()
		}
		st := b.StatsSnapshot()
		if a == TwoDStack || a == TwoDQueue {
			if st.Pushes == 0 {
				t.Errorf("%v: the window handle published no pushes: %+v", a, st)
			}
			continue
		}
		if st != (core.OpStats{}) {
			t.Errorf("%v: uncounted handle published %+v", a, st)
		}
		if b.Len() != 0 {
			t.Errorf("%v: Len %d after popping every item", a, b.Len())
		}
	}
}

// TestBackendRoundTrip pushes and pops through every default backend and
// checks conservation: nothing lost, nothing invented, Len and Drain agree.
func TestBackendRoundTrip(t *testing.T) {
	const n = 200
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 2)
			if err != nil {
				t.Fatal(err)
			}
			h := b.NewHandle()
			for i := 0; i < n; i++ {
				h.Push(i)
			}
			if got := b.Len(); got != n {
				t.Fatalf("Len = %d after %d pushes", got, n)
			}
			seen := make(map[int]bool)
			for i := 0; i < n/2; i++ {
				v, ok := h.Pop()
				if !ok {
					t.Fatalf("pop %d reported empty", i)
				}
				if v < 0 || v >= n || seen[v] {
					t.Fatalf("pop returned %d (dup or out of range)", v)
				}
				seen[v] = true
			}
			for _, v := range b.Drain() {
				if seen[v] {
					t.Fatalf("Drain returned already-popped %d", v)
				}
				seen[v] = true
			}
			if len(seen) != n {
				t.Fatalf("recovered %d of %d items", len(seen), n)
			}
			if b.Len() != 0 {
				t.Fatalf("Len = %d after Drain", b.Len())
			}
			if _, ok := h.Pop(); ok {
				t.Fatal("pop on drained backend succeeded")
			}
		})
	}
}

// TestDrainAllocsDoNotGrow pins that every catalogue backend's Drain
// sizes its result once, from Len: draining 8 000 items makes exactly as
// many allocations as draining 1 000, where a result that append regrows
// makes several more.
func TestDrainAllocsDoNotGrow(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	drainAllocs := func(a Algorithm, n int) uint64 {
		b, err := NewDefaultBackend[int](a, 2)
		if err != nil {
			t.Fatal(err)
		}
		h := b.NewHandle()
		for i := 0; i < n; i++ {
			h.Push(i)
		}
		var before, after runtime.MemStats
		runtime.GC() // no collection starts, and allocates, mid-drain
		runtime.ReadMemStats(&before)
		out := b.Drain()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(h)
		if len(out) != n {
			t.Fatalf("%v: Drain returned %d of %d items", a, len(out), n)
		}
		return after.Mallocs - before.Mallocs
	}
	for _, a := range AllAlgorithms() {
		if small, large := drainAllocs(a, 1000), drainAllocs(a, 8000); small != large {
			t.Errorf("%v: Drain allocates %d objects for 1 000 items and %d for 8 000", a, small, large)
		}
	}
}

// TestBackendStatsSnapshot checks the adapter counter plumbing: outcomes
// (pushes, pops, empty pops) land in StatsSnapshot for every backend, both
// mid-stream via the periodic flush and exactly after an explicit Flush.
func TestBackendStatsSnapshot(t *testing.T) {
	const n = 300 // > backendFlushInterval so the periodic path runs too
	for _, a := range AllAlgorithms() {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 2)
			if err != nil {
				t.Fatal(err)
			}
			h := b.NewHandle()
			for i := 0; i < n; i++ {
				h.Push(i)
			}
			for i := 0; i < n; i++ {
				if _, ok := h.Pop(); !ok {
					t.Fatalf("pop %d reported empty", i)
				}
			}
			h.Pop() // one empty pop
			h.Flush()
			st := b.StatsSnapshot()
			if st.Pushes != n || st.Pops != n || st.EmptyPops != 1 {
				t.Fatalf("snapshot = %+v, want %d/%d/1", st, n, n)
			}
		})
	}
}

// TestBackendStatsSnapshotConcurrent hammers snapshot-while-operating on a
// couple of representative backends; run with -race this pins the registry
// scheme (handle-local counters, atomic mirrors) as data-race-free.
func TestBackendStatsSnapshotConcurrent(t *testing.T) {
	for _, a := range []Algorithm{TwoDStack, EliminationStack, TreiberStack, MSQueue} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 4)
			if err != nil {
				t.Fatal(err)
			}
			var workers, sampler sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					h := b.NewHandle()
					for i := 0; i < 2000; i++ {
						h.Push(i)
						h.Pop()
					}
					h.Flush()
				}()
			}
			sampler.Add(1)
			go func() {
				defer sampler.Done()
				for {
					select {
					case <-stop:
						return
					default:
						b.StatsSnapshot()
					}
				}
			}()
			workers.Wait()
			close(stop)
			sampler.Wait()
			st := b.StatsSnapshot()
			if st.Pushes != 4*2000 {
				t.Fatalf("pushes = %d, want %d", st.Pushes, 4*2000)
			}
		})
	}
}

// TestBackendRegistryPrunesAndRetiresStats is core's
// TestHandleRegistryPrunesAndRetiresStats on the counting adapters: an
// engine makes one adapter handle per engine handle after every swap and
// drops the old one, so dropped adapter handles must not grow the
// registry without bound, and their flushed counters must survive in the
// snapshot exactly — at every poll, pruned or not.
func TestBackendRegistryPrunesAndRetiresStats(t *testing.T) {
	const dropped = 64
	for _, a := range []Algorithm{TreiberStack, MSQueue, EliminationStack} {
		t.Run(a.String(), func(t *testing.T) {
			b, err := NewDefaultBackend[int](a, 2)
			if err != nil {
				t.Fatal(err)
			}
			reg, ok := b.(interface{ RegisteredHandles() int })
			if !ok {
				t.Fatal("backend does not register its handles in a core.Registry")
			}
			var want core.OpStats
			for i := 0; i < dropped; i++ {
				h := b.NewHandle()
				for j := 0; j < 10; j++ {
					h.Push(j)
				}
				h.Pop()
				h.Flush()
				want.Add(h.(interface{ Stats() core.OpStats }).Stats())
			}
			if want.Pushes != 10*dropped || want.Pops != dropped {
				t.Fatalf("flushed %d pushes and %d pops, want %d and %d", want.Pushes, want.Pops, 10*dropped, dropped)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				runtime.GC()
				b.NewHandle() // registering prunes once the registry has doubled
				entries := reg.RegisteredHandles()
				if snap := b.StatsSnapshot(); snap != want {
					t.Fatalf("snapshot %+v, want exactly %+v", snap, want)
				}
				if entries <= 3 {
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("registry still holds %d entries after %d handles were dropped", entries, dropped)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestBackendMirrorSnapshotConsistency is the regression for the seqlock
// of core's per-handle counter mirror: every snapshot taken while
// handles flush must be cross-field consistent per mirror. Workers run
// push-then-pop pairs and flush after every operation, so a consistent
// mirror always shows Pops <= Pushes with the gap at most one per handle;
// the old per-field loads could pair a stale Pushes with a fresh Pops
// (Pops > Pushes) or drift by a whole flush interval. Covers both kinds of
// registry owner: the 2D backend reads core.Stack's window registry,
// Treiber the core.Registry its adapter embeds.
func TestBackendMirrorSnapshotConsistency(t *testing.T) {
	for _, a := range []Algorithm{TwoDStack, TreiberStack} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			const nWorkers, pairs = 4, 3000
			b, err := NewDefaultBackend[int](a, nWorkers)
			if err != nil {
				t.Fatal(err)
			}
			var workers sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < nWorkers; w++ {
				workers.Add(1)
				go func() {
					defer workers.Done()
					h := b.NewHandle()
					for i := 0; i < pairs; i++ {
						h.Push(i)
						h.Flush() // mid-pair: mirror shows Pushes == Pops+1
						h.Pop()
						h.Flush()
					}
				}()
			}
			var torn error
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					st := b.StatsSnapshot()
					if st.Pops > st.Pushes || st.Pushes-st.Pops > nWorkers {
						torn = fmt.Errorf("torn snapshot: Pushes=%d Pops=%d (gap must be in [0,%d])",
							st.Pushes, st.Pops, nWorkers)
						return
					}
				}
			}()
			workers.Wait()
			close(stop)
			<-done
			if torn != nil {
				t.Fatal(torn)
			}
			st := b.StatsSnapshot()
			if st.Pushes != nWorkers*pairs || st.Pops != nWorkers*pairs {
				t.Fatalf("final snapshot %d/%d, want %d/%d", st.Pushes, st.Pops, nWorkers*pairs, nWorkers*pairs)
			}
		})
	}
}

// TestTwoDBackendIsReconfigurable pins that the 2D adapter exposes the
// geometry controller's interface rather than hiding it: Config,
// Reconfigure and the displacement bound all pass through.
func TestTwoDBackendIsReconfigurable(t *testing.T) {
	b, err := NewTwoDBackend[int](core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := b.(interface {
		Config() core.Config
		Reconfigure(core.Config) error
		ShrinkDisplacementBound() int64
	})
	if !ok {
		t.Fatal("2D backend does not expose reconfiguration")
	}
	if got := r.Config().Width; got != 4 {
		t.Fatalf("Config().Width = %d", got)
	}
	before := b.KBound()
	if err := r.Reconfigure(core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}); err != nil {
		t.Fatal(err)
	}
	if b.KBound() >= before {
		t.Fatalf("KBound did not shrink with width: %d -> %d", before, b.KBound())
	}
}

// TestBackendKBoundMatchesStructure cross-checks the budget arithmetic the
// adapters report against the structure-level formulas.
func TestBackendKBoundMatchesStructure(t *testing.T) {
	td, err := NewTwoDBackend[int](TwoDConfigForK(300, 4))
	if err != nil {
		t.Fatal(err)
	}
	if want := TwoDConfigForK(300, 4).K(); td.KBound() != want {
		t.Errorf("2D KBound = %d, want %d", td.KBound(), want)
	}
	ks, err := NewKSegmentBackend[int](KSegmentConfigForK(17))
	if err != nil {
		t.Fatal(err)
	}
	if ks.KBound() != 17 {
		t.Errorf("k-segment KBound = %d, want 17", ks.KBound())
	}
	kr, err := NewMultiBackend[int](KRobinConfigForK(256, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Algorithm() != KRobin {
		t.Errorf("k-robin backend algorithm = %v", kr.Algorithm())
	}
	if want := KRobinBound(KRobinConfigForK(256, 4).Width, 4); kr.KBound() != want {
		t.Errorf("k-robin KBound = %d, want %d", kr.KBound(), want)
	}
}

// TestZooSignalCountersFlow checks the SetStats wiring end to end for a
// contended backend: internal signals (probes) reach the snapshot.
func TestZooSignalCountersFlow(t *testing.T) {
	b, err := NewDefaultBackend[int](KRobin, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := b.NewHandle()
	for i := 0; i < 100; i++ {
		h.Push(i)
	}
	for i := 0; i < 100; i++ {
		h.Pop()
	}
	h.Flush()
	if st := b.StatsSnapshot(); st.Probes == 0 {
		t.Fatalf("no probes recorded through the adapter: %+v", st)
	}
}
