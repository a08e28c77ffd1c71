package engine

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"stack2d/internal/adapt"
	"stack2d/internal/pad"
	"stack2d/internal/relax"
	"stack2d/internal/yield"
)

// The switcher is both a backend (stackable behind the same contract it
// multiplexes) and the adapt layer's selection target.
var (
	_ relax.Backend[uint64] = (*Switcher[uint64])(nil)
	_ adapt.BackendTarget   = (*Switcher[uint64])(nil)
)

func mustBackend(t *testing.T, a relax.Algorithm) relax.Backend[uint64] {
	t.Helper()
	b, err := relax.NewDefaultBackend[uint64](a, 4)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newSwitcher(t *testing.T, algs ...relax.Algorithm) *Switcher[uint64] {
	t.Helper()
	sw, err := New(mustBackend(t, algs[0]))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range algs[1:] {
		if err := sw.Register(mustBackend(t, a)); err != nil {
			t.Fatal(err)
		}
	}
	return sw
}

func TestSwitcherRejectsUncheckableBackends(t *testing.T) {
	if _, err := New(mustBackend(t, relax.RandomStack)); err == nil {
		t.Error("accepted a pool-semantics initial backend")
	}
	sw := newSwitcher(t, relax.TreiberStack)
	if err := sw.Register(mustBackend(t, relax.RandomStack)); err == nil {
		t.Error("registered an unbounded backend")
	}
	if err := sw.Register(mustBackend(t, relax.MSQueue)); err == nil {
		t.Error("registered a FIFO backend on a LIFO switcher")
	}
	if err := sw.Register(mustBackend(t, relax.TreiberStack)); err == nil {
		t.Error("registered a duplicate name")
	}
	if _, err := sw.Swap("elimination", "test"); err == nil {
		t.Error("swapped to an unregistered backend")
	}
}

// TestSwapMigratesInOrder pins the migration discipline: a sequential
// LIFO history must survive a swap exactly — drain order re-pushed so the
// former top pops first on the new backend.
func TestSwapMigratesInOrder(t *testing.T) {
	sw := newSwitcher(t, relax.TreiberStack, relax.EliminationStack)
	h := sw.NewHandle()
	for i := uint64(1); i <= 100; i++ {
		h.Push(i)
	}
	rec, err := sw.Swap("elimination", "test")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Migrated != 100 || rec.From != "treiber" || rec.To != "elimination" {
		t.Fatalf("swap record %+v", rec)
	}
	if rec.Displacement != 0 {
		t.Fatalf("strict backend migration claimed displacement %d", rec.Displacement)
	}
	if got := sw.ActiveBackend(); got != "elimination" {
		t.Fatalf("active = %q", got)
	}
	for want := uint64(100); want >= 1; want-- {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("pop = (%d,%v), want %d", v, ok, want)
		}
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("pop after full drain succeeded")
	}
}

// TestSwapFIFOOrdering is the queue counterpart: a switcher seeded with
// the MS-queue keeps FIFO order across a no-op swap and across real
// migrations, whose drained slice goes in front first as one batch. The
// 2D-Queue at k = 0 is width 1, strict, so the order must survive exactly.
func TestSwapFIFOOrdering(t *testing.T) {
	sw, err := New(mustBackend(t, relax.MSQueue))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Algorithm().Ordering() != relax.OrderFIFO {
		t.Fatal("switcher did not adopt FIFO ordering")
	}
	if err := sw.Register(mustBackend(t, relax.TreiberStack)); err == nil {
		t.Fatal("LIFO backend accepted on FIFO switcher")
	}
	h := sw.NewHandle()
	for i := uint64(1); i <= 50; i++ {
		h.Push(i)
	}
	// A no-op swap must not disturb anything.
	if _, err := sw.Swap("ms-queue", "noop"); err != nil {
		t.Fatal(err)
	}
	if len(sw.Swaps()) != 0 {
		t.Fatalf("no-op swap recorded: %+v", sw.Swaps())
	}
	strict, err := relax.NewBackendForK[uint64](relax.TwoDQueue, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Register(strict); err != nil {
		t.Fatal(err)
	}
	for i, to := range []string{"2D-queue", "ms-queue"} {
		rec, err := sw.Swap(to, "test")
		if err != nil {
			t.Fatal(err)
		}
		if want := 50 - 25*i; rec.Migrated != want {
			t.Fatalf("swap to %s migrated %d items, want %d", to, rec.Migrated, want)
		}
		for want := uint64(25*i + 1); want <= uint64(25*i+25); want++ {
			if v, ok := h.Pop(); !ok || v != want {
				t.Fatalf("on %s: pop = (%d,%v), want %d", to, v, ok, want)
			}
		}
	}
}

// TestSwapDisplacementAccounting checks the allowance arithmetic: a
// relaxed outgoing backend contributes min(its k, migrated−1) per swap,
// cumulatively.
func TestSwapDisplacementAccounting(t *testing.T) {
	ks, err := relax.NewKSegmentBackend[uint64](relax.KSegmentConfigForK(7))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New[uint64](ks)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Register(mustBackend(t, relax.TreiberStack)); err != nil {
		t.Fatal(err)
	}
	h := sw.NewHandle()
	for i := uint64(0); i < 3; i++ {
		h.Push(i)
	}
	rec, err := sw.Swap("treiber", "small-residue")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Displacement != 2 { // min(k=7, migrated-1=2)
		t.Fatalf("displacement = %d, want 2", rec.Displacement)
	}
	for i := uint64(0); i < 100; i++ {
		h.Push(i)
	}
	rec, err = sw.Swap("k-segment", "large-residue")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Displacement != 0 { // strict outgoing backend
		t.Fatalf("strict migration displacement = %d", rec.Displacement)
	}
	if got := sw.SwapDisplacementBound(); got != 2 {
		t.Fatalf("cumulative bound = %d, want 2", got)
	}
	if sw.KBound() != 7 { // max over backends ever active
		t.Fatalf("KBound = %d, want 7", sw.KBound())
	}
}

// TestSwapUnderLoad hammers the switcher with concurrent workers while
// the main goroutine cycles the active backend; conservation (every push
// popped or drained, no duplicates) must hold across every migration.
// Run with -race this also pins the pin/drain protocol.
func TestSwapUnderLoad(t *testing.T) {
	sw := newSwitcher(t, relax.TwoDStack, relax.EliminationStack, relax.TreiberStack)
	const workers = 4
	const perWorker = 5000
	var popped sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			h := sw.NewHandle()
			for i := 0; i < perWorker; i++ {
				label := uint64(id)<<32 | uint64(i)
				h.Push(label)
				if v, ok := h.Pop(); ok {
					if _, dup := popped.LoadOrStore(v, true); dup {
						t.Errorf("duplicate pop %#x", v)
						return
					}
				}
			}
			h.Flush()
		}(w)
	}
	targets := []string{"elimination", "treiber", "2D-stack"}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if _, err := sw.Swap(targets[i%len(targets)], "hammer"); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	n := 0
	popped.Range(func(k, v any) bool { n++; return true })
	for _, v := range sw.Drain() {
		if _, dup := popped.LoadOrStore(v, true); dup {
			t.Fatalf("drained already-popped %#x", v)
		}
		n++
	}
	if n != workers*perWorker {
		t.Fatalf("recovered %d of %d items", n, workers*perWorker)
	}
	if got := len(sw.Swaps()); got != 30 {
		t.Fatalf("swap count = %d, want 30", got)
	}
	// Migration re-pushes flow through ordinary adapter handles, so they
	// count: totals are worker pushes plus the recorded migrations.
	var migrated uint64
	for _, rec := range sw.Swaps() {
		migrated += uint64(rec.Migrated)
	}
	st := sw.StatsSnapshot()
	if st.Pushes != workers*perWorker+migrated {
		t.Fatalf("pushes = %d, want %d+%d (stats lost across swaps)",
			st.Pushes, workers*perWorker, migrated)
	}
}

// TestSwapWaitsForEveryStripe holds a pin on a stripe other than 0 and
// checks that a swap quiesces it: the swapper must reach its first drain
// wait without returning, and must return once the pin is released. A
// swap that read only stripe 0 would return at once without waiting.
func TestSwapWaitsForEveryStripe(t *testing.T) {
	sw, err := newStriped(mustBackend(t, relax.TreiberStack), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Register(mustBackend(t, relax.EliminationStack)); err != nil {
		t.Fatal(err)
	}
	sw.newHandle() // deals stripe 0
	h := sw.newHandle()
	if h.stripe == 0 {
		t.Fatal("second handle dealt stripe 0 of 4")
	}
	s := h.pin()

	waiting := make(chan struct{})
	var once sync.Once
	yield.Gate = func(p yield.Point) {
		if p == yield.PointWait {
			once.Do(func() { close(waiting) })
		}
	}
	defer func() { yield.Gate = nil }()
	swapped := make(chan error, 1)
	go func() {
		_, err := sw.Swap("elimination", "test")
		swapped <- err
	}()
	select {
	case <-waiting:
	case err := <-swapped:
		t.Fatalf("Swap returned (err %v) while stripe %d held a pin", err, h.stripe)
	}
	during := sw.ActiveBackend()
	h.unpin(s)
	if err := <-swapped; err != nil {
		t.Fatal(err)
	}
	if during != "treiber" {
		t.Fatalf("active = %q while stripe %d held a pin on treiber", during, h.stripe)
	}
	if got := sw.ActiveBackend(); got != "elimination" {
		t.Fatalf("active = %q after the swap", got)
	}
}

// TestPinStripesOnDistinctLines checks that every slot's pin stripes each
// fill a cache line of their own, for 1, 2, 4 and 8 stripes and for the
// count New derives from GOMAXPROCS (the smallest power of two at least
// GOMAXPROCS), so handles on different stripes never write one line.
func TestPinStripesOnDistinctLines(t *testing.T) {
	want := 1
	for want < runtime.GOMAXPROCS(0) {
		want *= 2
	}
	for _, n := range []int{1, 2, 4, 8, 0} {
		name, build := fmt.Sprint(n), func(b relax.Backend[uint64]) (*Switcher[uint64], error) {
			return newStriped(b, n)
		}
		if n == 0 {
			name, build, n = "New", New[uint64], want
		}
		t.Run(name, func(t *testing.T) {
			sw, err := build(mustBackend(t, relax.TreiberStack))
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Register(mustBackend(t, relax.EliminationStack)); err != nil {
				t.Fatal(err)
			}
			for _, b := range sw.Backends() {
				pins := sw.byName[b].pins
				if len(pins) != n {
					t.Fatalf("%s: %d stripes, want %d", b, len(pins), n)
				}
				lines := make(map[uintptr]int)
				for i := range pins {
					first := uintptr(unsafe.Pointer(&pins[i]))
					line := first / pad.CacheLineSize
					if last := first + unsafe.Sizeof(pins[i]) - 1; last/pad.CacheLineSize != line {
						t.Fatalf("%s: stripe %d at %#x straddles two cache lines", b, i, first)
					}
					if j, ok := lines[line]; ok {
						t.Fatalf("%s: stripes %d and %d share cache line %#x", b, j, i, line*pad.CacheLineSize)
					}
					lines[line] = i
				}
			}
		})
	}
}

// TestOnSwapCallback checks the observability hook: one callback per
// effective swap, in order, with the reason preserved.
func TestOnSwapCallback(t *testing.T) {
	sw := newSwitcher(t, relax.TreiberStack, relax.EliminationStack)
	var got []SwapRecord
	sw.SetOnSwap(func(r SwapRecord) { got = append(got, r) })
	if _, err := sw.Swap("elimination", "because"); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Swap("elimination", "again"); err != nil { // no-op
		t.Fatal(err)
	}
	if _, err := sw.Swap("treiber", "back"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Reason != "because" || got[1].Reason != "back" {
		t.Fatalf("callback records %+v", got)
	}
	if got[0].Seq != 0 || got[1].Seq != 1 {
		t.Fatalf("sequence numbers %d,%d", got[0].Seq, got[1].Seq)
	}
}
