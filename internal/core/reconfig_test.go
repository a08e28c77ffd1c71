package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"stack2d/internal/seqspec"
	"stack2d/internal/xrand"
)

func TestReconfigureValidation(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	if err := s.Reconfigure(Config{Width: 0, Depth: 8, Shift: 8}); err == nil {
		t.Fatal("Reconfigure accepted Width 0")
	}
	if err := s.Reconfigure(Config{Width: 4, Depth: 8, Shift: 16}); err == nil {
		t.Fatal("Reconfigure accepted Shift > Depth")
	}
	if got := s.Config(); got != (Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}) {
		t.Fatalf("failed Reconfigure mutated config: %+v", got)
	}
}

// TestShrinkWarmHandoffSplice pins the warm-handoff mechanics in a
// quiescent shrink: stranded chains are spliced onto the least-loaded
// surviving sub-stacks (reproducing the argmin choice from the pre-shrink
// counts), the Global window advances exactly once in a batch — restoring
// push headroom; the retired funnel-migration re-pushed items through the
// window search, raising Global once per exhausted band (the k-spike),
// while a splice without the batched raise would defer those raises onto
// stalled client pushes — and the displacement accounting opens a non-zero
// budget.
func TestShrinkWarmHandoffSplice(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 0})
	h := s.NewHandle()
	for i := uint64(0); i < 400; i++ {
		h.Push(i)
	}
	before := s.SubCounts()
	if err := s.SetWidth(2); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 400 {
		t.Fatalf("Len = %d after shrink, want 400 (migration lost items)", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after shrink: %v", err)
	}
	// Replay the argmin policy on the recorded counts: dropped slots are
	// spliced in index order, each onto the currently least-loaded
	// survivor.
	want := []int64{before[0], before[1]}
	for _, stranded := range before[2:] {
		j := 0
		if want[1] < want[0] {
			j = 1
		}
		want[j] += stranded
	}
	after := s.SubCounts()
	if after[0] != want[0] || after[1] != want[1] {
		t.Fatalf("post-shrink loads %v, want %v (least-loaded splice of %v)", after, want, before)
	}
	if s.ShrinkDisplacementBound() <= 0 {
		t.Fatal("shrink migrated items but ShrinkDisplacementBound is zero")
	}
	// Push headroom was restored in one batched Global advance: the next
	// push needs zero window raises, and a pop still succeeds.
	raisesBefore := h.Stats().WindowRaises
	h.Push(1 << 40)
	if raises := h.Stats().WindowRaises - raisesBefore; raises != 0 {
		t.Fatalf("first post-shrink push needed %d window raises (push outage)", raises)
	}
	if _, ok := h.Pop(); !ok {
		t.Fatal("post-shrink pop failed")
	}
}

func TestReconfigureQuiescent(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	h := s.NewHandle()
	const n = 1000
	for i := 0; i < n; i++ {
		h.Push(i)
	}
	steps := []Config{
		{Width: 16, Depth: 4, Shift: 4, RandomHops: 2},   // grow width
		{Width: 16, Depth: 64, Shift: 32, RandomHops: 2}, // deepen window
		{Width: 3, Depth: 64, Shift: 32, RandomHops: 2},  // shrink width (migration)
		{Width: 1, Depth: 8, Shift: 8, RandomHops: 0},    // degenerate to strict
		{Width: 8, Depth: 16, Shift: 16, RandomHops: 1},  // grow again
	}
	epoch := s.Epoch()
	for _, cfg := range steps {
		if err := s.Reconfigure(cfg); err != nil {
			t.Fatalf("Reconfigure(%+v): %v", cfg, err)
		}
		if got := s.Config(); got != cfg {
			t.Fatalf("Config() = %+v after Reconfigure(%+v)", got, cfg)
		}
		if got := s.Epoch(); got != epoch+1 {
			t.Fatalf("Epoch = %d, want %d", got, epoch+1)
		}
		epoch++
		if got := s.Len(); got != n {
			t.Fatalf("Len = %d after Reconfigure(%+v), want %d", got, cfg, n)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("invariants after Reconfigure(%+v): %v", cfg, err)
		}
	}
	// Reconfiguring to the current config is a no-op (same epoch).
	cur := s.Config()
	if err := s.Reconfigure(cur); err != nil {
		t.Fatal(err)
	}
	if got := s.Epoch(); got != epoch {
		t.Fatalf("no-op Reconfigure bumped epoch %d -> %d", epoch, got)
	}
	seen := make(map[int]bool, n)
	for _, v := range s.Drain() {
		if seen[v] {
			t.Fatalf("duplicate item %d after reconfigurations", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct items, want %d", len(seen), n)
	}
}

// TestReconfigureStress hammers the stack from many goroutines while a
// dedicated goroutine cycles the geometry through grows, shrinks and
// depth/shift changes. Afterwards every pushed item must be accounted for
// exactly once across {popped} ∪ {remaining} — live reconfiguration may
// reorder items but can never lose or duplicate one.
func TestReconfigureStress(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})

	const workers = 8
	duration := 200 * time.Millisecond
	if testing.Short() {
		duration = 50 * time.Millisecond
	}

	geometries := []Config{
		{Width: 2, Depth: 4, Shift: 4, RandomHops: 1},
		{Width: 32, Depth: 4, Shift: 2, RandomHops: 2},
		{Width: 32, Depth: 128, Shift: 128, RandomHops: 2},
		{Width: 3, Depth: 16, Shift: 8, RandomHops: 0},
		{Width: 1, Depth: 64, Shift: 64, RandomHops: 0},
		{Width: 12, Depth: 32, Shift: 16, RandomHops: 2},
	}

	var stop atomic.Bool
	var wg sync.WaitGroup

	popped := make([]map[uint64]int, workers)
	pushedCount := make([]uint64, workers)
	for i := 0; i < workers; i++ {
		popped[i] = make(map[uint64]int)
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := s.NewHandle()
			// Unique labels: worker id in the high bits.
			label := uint64(id+1) << 40
			for !stop.Load() {
				label++
				h.Push(label)
				pushedCount[id]++
				if v, ok := h.Pop(); ok {
					popped[id][v]++
				}
			}
		}(i)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for !stop.Load() {
			if err := s.Reconfigure(geometries[i%len(geometries)]); err != nil {
				t.Errorf("Reconfigure: %v", err)
				return
			}
			i++
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()

	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}

	var total uint64
	for _, n := range pushedCount {
		total += n
	}
	seen := make(map[uint64]int, total)
	var poppedN uint64
	for _, m := range popped {
		for v, n := range m {
			seen[v] += n
			poppedN += uint64(n)
		}
	}
	remaining := s.Drain()
	for _, v := range remaining {
		seen[v]++
	}
	if got := poppedN + uint64(len(remaining)); got != total {
		t.Fatalf("pushed %d items but popped %d + remaining %d = %d", total, poppedN, len(remaining), got)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d seen %d times (lost or duplicated)", v, n)
		}
	}
	// The final geometry must be one of the cycled ones and self-consistent.
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if snap := s.StatsSnapshot(); snap.Ops() == 0 {
		t.Fatal("StatsSnapshot reported zero operations after a stress run")
	}
}

// TestStatsSnapshotTracksHandles verifies the central registry aggregates
// published handle counters without requiring owner-goroutine access.
func TestStatsSnapshotTracksHandles(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	h1 := s.NewHandle()
	h2 := s.NewHandle()
	for i := 0; i < 10; i++ {
		h1.Push(i)
	}
	for i := 0; i < 4; i++ {
		h2.Pop()
	}
	// Below the flush interval nothing is published yet; force it.
	h1.FlushStats()
	h2.FlushStats()
	snap := s.StatsSnapshot()
	if snap.Pushes != 10 || snap.Pops != 4 {
		t.Fatalf("snapshot = %+v, want 10 pushes / 4 pops", snap)
	}
	// Deltas between snapshots saturate rather than underflow on reset.
	h1.ResetStats()
	if d := s.StatsSnapshot().Sub(snap); d.Pushes != 0 {
		t.Fatalf("delta after reset = %+v, want saturated zero pushes", d)
	}
}

// TestHandleRegistryPrunesAndRetiresStats guards the convenience-API path
// (sync.Pool of handles): abandoned handles must not grow the registry
// without bound, and their published counters must survive collection in
// the retired total.
func TestHandleRegistryPrunesAndRetiresStats(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	for i := 0; i < 8; i++ {
		h := s.NewHandle()
		for j := 0; j < 10; j++ {
			h.Push(j)
		}
		h.FlushStats()
	}
	// All 8 handles are now unreferenced. A registration prunes collected
	// entries once the registry has doubled since its last prune, folding
	// their counters into the retired total; collection is asynchronous,
	// so poll with a deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		s.NewHandle() // registering prunes dead entries
		s.hMu.Lock()
		entries := len(s.handles)
		s.hMu.Unlock()
		snap := s.StatsSnapshot()
		if entries <= 3 && snap.Pushes == 80 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d entries, snapshot %+v (want <= 3 entries, 80 pushes)", entries, snap)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRegistryPrunesOnDoubling pins the registration rule: a registration
// prunes collected entries only once the registry has doubled since its
// last prune, so a stream of new handles pays amortised O(1) each instead
// of a rescan of every entry, while StatsSnapshot stays exact. Five handles
// are registered and held (the fifth registration prunes, keeps four, and
// so puts the next prune at eight entries); they flush known work and are
// then dropped and collected. Three more held handles grow the registry to
// 6, 7 and 8 entries without pruning; the fourth finds eight, prunes the
// five dead ones and reads 4. A registry that pruned on every registration
// reads 1, 2, 3, 4. Every count depends only on the rule, not on the host:
// the test waits for the collection before it counts.
func TestRegistryPrunesOnDoubling(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	var want OpStats
	var dropped []weak.Pointer[Handle[int]]
	func() {
		held := make([]*Handle[int], 5)
		for i := range held {
			held[i] = s.NewHandle()
		}
		for i, h := range held {
			for j := 0; j <= i; j++ {
				h.Push(j)
			}
			h.FlushStats()
			want.Add(h.Stats())
			dropped = append(dropped, weak.Make(h))
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for collected := false; !collected; {
		runtime.GC()
		collected = true
		for _, wp := range dropped {
			collected = collected && wp.Value() == nil
		}
		if !collected {
			if time.Now().After(deadline) {
				t.Fatal("dropped handles were never collected")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	var held []*Handle[int]
	for _, entries := range []int{6, 7, 8, 4} {
		held = append(held, s.NewHandle())
		if got := s.RegisteredHandles(); got != entries {
			t.Fatalf("registration %d: %d entries, want %d (prune only once the registry doubles)", 5+len(held), got, entries)
		}
		if snap := s.StatsSnapshot(); snap != want {
			t.Fatalf("registration %d: snapshot %+v, want exactly %+v", 5+len(held), snap, want)
		}
	}
	runtime.KeepAlive(held)
}

// TestReconfigureGrowthJoinsAtFloor is the sequential witness of the old
// width-growth bound gap: 100 pushes at width 2 (depth = shift = 4),
// SetWidth(3), 40 more pushes and a drain. A new sub-stack that joined at
// count 0 under a Global of about 52 hid its first 48 items below the pop
// floor while pops took older items from the old slots (distance 40
// against k_new = 24). Joining at the window floor keeps every pop within
// the new geometry's k.
func TestReconfigureGrowthJoinsAtFloor(t *testing.T) {
	for _, hops := range []int{0, 1} {
		s := MustNew[uint64](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: hops})
		h := s.NewHandle()
		var ops []seqspec.Op
		var v uint64
		push := func(n int) {
			for ; n > 0; n-- {
				h.Push(v)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
				v++
			}
		}
		push(100)
		if err := s.SetWidth(3); err != nil {
			t.Fatal(err)
		}
		push(40)
		for {
			x, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: x, Empty: !ok})
			if !ok {
				break
			}
		}
		if _, err := (seqspec.KStackChecker{K: s.Config().K()}).Check(seqspec.SequentialIntervals(ops)); err != nil {
			t.Fatalf("hops %d: %v", hops, err)
		}
	}
}

// TestPropertyReconfigureGrowthKBound drives sequential push/pop mixes,
// through singleton and batch operations, that grow the width one slot at
// a time (2 up to 6) and change depth and shift at random points, and
// requires every pop's distance to stay within the largest k of the
// geometries used (DESIGN.md §4, invariant 2): growth adds no
// displacement of its own. After every operation it also checks the upper
// half of the §2 band argument on heights: no sub-stack holding items
// stands above Global.
func TestPropertyReconfigureGrowthKBound(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := xrand.New(seed)
		cfg := Config{Width: 2, Depth: int64(1 + rng.Intn(6)), RandomHops: rng.Intn(3)}
		cfg.Shift = int64(1 + rng.Intn(int(cfg.Depth)))
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		var v uint64
		maxK := cfg.K()
		batch := make([]uint64, 0, 4)
		for i := 0; i < 1500; i++ {
			switch r := rng.Intn(100); {
			case r < 1 && cfg.Width < 6:
				cfg.Width++
				if err := s.SetWidth(cfg.Width); err != nil {
					t.Fatal(err)
				}
				maxK = max(maxK, cfg.K())
			case r < 2:
				cfg.Depth = int64(1 + rng.Intn(6))
				cfg.Shift = int64(1 + rng.Intn(int(cfg.Depth)))
				if err := s.SetWindow(cfg.Depth, cfg.Shift); err != nil {
					t.Fatal(err)
				}
				maxK = max(maxK, cfg.K())
			case r < 50:
				h.Push(v)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
				v++
			case r < 58:
				batch = batch[:0]
				for n := 1 + rng.Intn(4); n > 0; n-- {
					batch = append(batch, v)
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
					v++
				}
				h.PushBatch(batch)
			case r < 92:
				x, ok := h.Pop()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: x, Empty: !ok})
			default:
				for _, x := range h.PopBatch(1 + rng.Intn(4)) {
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: x})
				}
			}
			for j, ss := range s.Geometry().Subs {
				if c := ss.load().count; c > 0 && ss.base+c > s.Global() {
					t.Fatalf("seed %d op %d: sub-stack %d at height %d+%d above Global %d", seed, i, j, ss.base, c, s.Global())
				}
			}
		}
		if _, err := (seqspec.KStackChecker{K: maxK}).Check(seqspec.SequentialIntervals(ops)); err != nil {
			t.Fatalf("seed %d (final %+v, k %d): %v", seed, cfg, maxK, err)
		}
	}
}
