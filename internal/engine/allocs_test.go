package engine

import (
	"fmt"
	"runtime"
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/relax"
)

// TestHandleAllocsPinned pins the steady-state allocation cost of one push
// and one pop through a relax adapter handle and through a switcher handle
// fronting the same kind of backend, at the uncontended and contended
// default geometries. Neither layer may add an allocation to the
// structure's own: 2D pushes allocate one descriptor, which embeds the
// node, and its pops nothing (core's TestOpAllocsPinned); elimination and
// Treiber pushes allocate the node and their pops nothing.
func TestHandleAllocsPinned(t *testing.T) {
	for _, c := range []struct {
		a         relax.Algorithm
		push, pop float64
	}{
		{relax.TwoDStack, 1, 0},
		{relax.EliminationStack, 1, 0},
		{relax.TreiberStack, 1, 0},
	} {
		for _, p := range []int{1, 16} {
			for _, layer := range []string{"relax", "switcher"} {
				t.Run(fmt.Sprintf("%s/p%d/%s", c.a, p, layer), func(t *testing.T) {
					b, err := relax.NewDefaultBackend[uint64](c.a, p)
					if err != nil {
						t.Fatal(err)
					}
					h := b.NewHandle()
					if layer == "switcher" {
						sw, err := New(b)
						if err != nil {
							t.Fatal(err)
						}
						h = sw.NewHandle()
					}
					var i uint64
					if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++ }); got != c.push {
						t.Errorf("Push allocates %v per op, pinned at %v", got, c.push)
					}
					if got := testing.AllocsPerRun(5000, func() { h.Pop() }); got != c.pop {
						t.Errorf("Pop allocates %v per op, pinned at %v", got, c.pop)
					}
				})
			}
		}
	}
}

// TestSwapAllocsPinned pins what a swap's migration allocates: one exactly
// sized Drain of the outgoing backend and one PushBatch into the incoming
// one, not a node per item. The rotation is perfbench engine-swap's — the
// 2D-Stack at DefaultConfig(2), elimination, Treiber — over 32 768 items,
// nine swaps. The Treiber and elimination refills are one slab each; a
// 2D refill allocates a slab and a descriptor per window group of at most
// Depth items, and a 2D drain at most one descriptor per group. A
// migration that pushes item by item allocates at least one node per
// item, 32 times this bound.
func TestSwapAllocsPinned(t *testing.T) {
	const items, swaps = 1 << 15, 9
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	twod, err := relax.NewTwoDBackend[uint64](core.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := newStriped(twod, 2)
	if err != nil {
		t.Fatal(err)
	}
	elim, err := relax.NewEliminationBackend[uint64](elimination.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []relax.Backend[uint64]{elim, relax.NewTreiberBackend[uint64]()} {
		if err := sw.Register(b); err != nil {
			t.Fatal(err)
		}
	}
	h := sw.NewHandle()
	for i := uint64(0); i < items; i++ {
		h.Push(i)
	}
	h.Flush()
	names := sw.Backends()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= swaps; i++ {
		if _, err := sw.Swap(names[i%len(names)], "pin"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for _, rec := range sw.Swaps() {
		if rec.Migrated != items {
			t.Fatalf("swap %+v migrated %d items, want %d", rec, rec.Migrated, items)
		}
	}
	perSwap := float64(after.Mallocs-before.Mallocs) / swaps
	t.Logf("%.1f allocations per swap, %.1f bytes per migrated item", perSwap, float64(after.TotalAlloc-before.TotalAlloc)/swaps/items)
	if limit := float64(items) / 32; perSwap > limit {
		t.Errorf("a swap of %d items allocates %.0f objects, pinned at most %.0f", items, perSwap, limit)
	}
}
