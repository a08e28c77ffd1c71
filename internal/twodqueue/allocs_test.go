package twodqueue

import (
	"runtime"
	"testing"
	"unsafe"

	"stack2d/internal/core"
	"stack2d/internal/msqueue"
)

// TestOpAllocsPinned pins the queue hot path's allocation cost, sampling
// branch included: an enqueue-only run carves its nodes from fresh slabs,
// one allocation per slabNodes enqueues, and Dequeue allocates nothing
// but the handle's slab ring, once, when its first slab retires. Once a
// handle's dequeues have retired slabs and their grace period has passed,
// its enqueues carve from those, and Enqueue+Dequeue cycles, singly or in
// batches, allocate nothing (slab.go, DESIGN.md §3). The 1-in-64 latency
// sampler and an installed structural observer (never read on the
// operation path) must both add zero.
func TestOpAllocsPinned(t *testing.T) {
	run := func(t *testing.T, q *Queue[uint64]) {
		h := q.NewHandle()
		var i uint64
		const slabs = 100
		if got := allocsTotal(slabs*slabNodes, func() { h.Enqueue(i); i++ }); got != slabs {
			t.Fatalf("%d enqueues allocate %d times, pinned at %d (one slab per %d enqueues)", slabs*slabNodes, got, slabs, slabNodes)
		}
		if got := allocsTotal(5000, func() { h.Dequeue() }); got != 1 {
			t.Fatalf("5000 dequeues allocate %d times, pinned at 1 (the slab ring)", got)
		}
	}
	t.Run("no-observer", func(t *testing.T) {
		run(t, MustNew[uint64](Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2}))
	})
	t.Run("observer-installed", func(t *testing.T) {
		q := MustNew[uint64](Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2})
		q.SetObserver(nopObserver{})
		run(t, q)
	})
	// The benchmark geometry: once the handle's dequeues have retired
	// slabs, each slab refill takes one.
	t.Run("steady-state", func(t *testing.T) {
		q := MustNew[uint64](DefaultConfig(2))
		h := q.NewHandle()
		var i uint64
		for ; i < 1000; i++ {
			h.Enqueue(i)
		}
		cycle := func() { h.Enqueue(i); i++; h.Dequeue() }
		for range 2000 { // until the prefill's slabs have come round
			cycle()
		}
		if got := allocsTotal(10000, cycle); got != 0 {
			t.Fatalf("Enqueue+Dequeue cycles allocate %d times in 10000, pinned at 0 (enqueues carve retired slabs)", got)
		}
	})
	// Batches carve and retire the same way: the op buffer's publish
	// (EnqueueBatch) and refill (dequeueBatchInto, into a standing slice).
	t.Run("batches", func(t *testing.T) {
		q := MustNew[uint64](DefaultConfig(2))
		h := q.NewHandle()
		const batch = 16
		vs := make([]uint64, batch)
		buf := make([]uint64, 0, batch)
		for v := range uint64(1000) {
			h.Enqueue(v)
		}
		cycle := func() {
			h.EnqueueBatch(vs)
			if got := h.dequeueBatchInto(buf[:0], batch); len(got) != batch {
				t.Fatalf("dequeueBatchInto returned %d values, want %d", len(got), batch)
			}
		}
		for range 200 {
			cycle()
		}
		if got := allocsTotal(2000, cycle); got != 0 {
			t.Fatalf("EnqueueBatch+dequeueBatchInto cycles of %d allocate %d times in 2000, pinned at 0", batch, got)
		}
	})
}

// TestNodeSizesPinned: the strict queue keeps its 16-B Michael–Scott
// node; the 2D-Queue's node adds only its slab pointer, and a slab of
// uint64 nodes with its live count stays in the 1536-B size class.
func TestNodeSizesPinned(t *testing.T) {
	if got := unsafe.Sizeof(msqueue.Node[uint64]{}); got != 16 {
		t.Errorf("msqueue.Node[uint64] is %d B, pinned at 16", got)
	}
	if got := unsafe.Sizeof(node[uint64]{}); got != 24 {
		t.Errorf("the 2D-Queue's node[uint64] is %d B, pinned at 24", got)
	}
	if got := unsafe.Sizeof(slab[uint64]{}); got > 1536 {
		t.Errorf("slab[uint64] is %d B, beyond the 1536-B size class", got)
	}
}

// allocsTotal returns the heap allocations of runs calls of f after one
// warm-up call, in total. AllocsPerRun reports the per-run average rounded
// down, which reads 0 for anything under one allocation per run.
func allocsTotal(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

type nopObserver struct{}

func (nopObserver) ObserveStruct(core.StructEvent) {}
