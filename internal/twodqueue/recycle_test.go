package twodqueue

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"stack2d/internal/yield"
)

// TestRecycleWaitsForPinnedHandle: a handle pinned mid-operation on a
// sub-queue may hold its dummy and its front node. Neither is carved
// again for as long as it stays pinned, however many enqueue/dequeue
// cycles another handle runs on the sub-queue, and the era moves at most
// one step past its pin. Once it unpins, the cycles stop allocating.
func TestRecycleWaitsForPinnedHandle(t *testing.T) {
	q := MustNew[uint64](Config{Width: 1, Depth: 64, Shift: 64, RandomHops: 0})
	a, b := q.NewHandle(), q.NewHandle()
	b.Enqueue(0)
	b.Dequeue() // the dummy is now b's first carved node
	b.Enqueue(1)
	first := b.slab
	dummy, front := &first.nodes[0], &first.nodes[1]
	a.PinOp()
	pinned := a.Era()
	v := uint64(2)
	for n := 0; n < 10000; n++ {
		b.Enqueue(v)
		if c := &b.slab.nodes[b.carved-1]; c == dummy || c == front {
			t.Fatalf("cycle %d: an enqueue carved a node a pinned handle may hold", n)
		}
		if got, ok := b.Dequeue(); !ok || got != v-1 {
			t.Fatalf("cycle %d: Dequeue = (%d, %v), want (%d, true)", n, got, ok, v-1)
		}
		v++
	}
	if dummy.Value().s != first || front.Value().s != first {
		t.Fatal("a node a pinned handle may hold was rewritten")
	}
	if e := a.Era(); e > pinned+1 {
		t.Fatalf("era moved from %d to %d while a handle stayed pinned at %d", pinned, e, pinned)
	}
	a.Unpin()
	cycle := func() {
		b.Enqueue(v)
		v++
		b.Dequeue()
	}
	for range 4 * slabNodes {
		cycle()
	}
	if got := allocsTotal(1000, cycle); got != 0 {
		t.Fatalf("after the unpin, 1000 Enqueue+Dequeue cycles allocate %d times, want 0", got)
	}
}

// TestEraTagReadAfterLastUnlinkingCAS: the dequeue that unlinks a slab's
// last node tags the slab with the era read after its CAS, not the era it
// pinned at. Here the era moves while B's Dequeue is pinned (at its window
// move), and A pins at the new era, where it may load the dummy B then
// unlinks; tagged with B's pinned era, the slab would be ripe while A
// still holds that node.
func TestEraTagReadAfterLastUnlinkingCAS(t *testing.T) {
	q := MustNew[uint64](Config{Width: 1, Depth: 1, Shift: 1, RandomHops: 0})
	a, b := q.NewHandle(), q.NewHandle()
	// B carves one whole slab and dequeues every item in it: the slab's
	// last node is the dummy, the one node of it not yet unlinked.
	for v := range uint64(slabNodes) {
		b.Enqueue(v)
	}
	s := b.slab
	for range slabNodes {
		b.Dequeue()
	}
	b.Enqueue(slabNodes) // the first node of a new slab
	if n := s.live.Load(); n != 1 {
		t.Fatalf("slab live count %d, want 1 (its last node is the dummy)", n)
	}
	var before uint64
	pinned := false
	yield.Gate = func(p yield.Point) {
		if p != yield.PointWindowMove || pinned {
			return
		}
		before = a.Era()
		a.TryAdvance()
		a.PinOp()
		pinned = true
	}
	defer func() { yield.Gate = nil }()
	v, ok := b.Dequeue()
	yield.Gate = nil
	if !pinned {
		t.Fatal("B's Dequeue did not move the window")
	}
	if !ok || v != slabNodes {
		t.Fatalf("Dequeue = (%d, %v), want (%d, true)", v, ok, slabNodes)
	}
	if n := s.live.Load(); n != 0 || b.slabs.Len() != 1 {
		t.Fatalf("slab live count %d, ring %d: the last unlink did not retire the slab", n, b.slabs.Len())
	}
	if e := a.Era(); e != before+1 {
		t.Fatalf("era %d, want %d: the advance under B's pin did not happen", e, before+1)
	}
	for n := uint64(0); n < 1000; n++ {
		b.Enqueue(n)
		if b.slab == s {
			t.Fatalf("cycle %d: an enqueue carved the slab of a node a handle pinned after the advance may hold", n)
		}
		b.Dequeue()
	}
	a.Unpin()
}

// TestRecycleConservationUnderReconfig hammers slab recycling together
// with every other party that reads queue nodes: P handles run
// enqueue/dequeue mixes, singly and in batches, while a reconfigurer
// shrinks and grows the width (the shrink handoff enqueues onto the
// survivors' tails) and a reader calls Len and SubLens. Every item comes
// out exactly once, and the enqueues reuse slabs. Under -race it also
// checks that no node is rewritten while an operation or the handoff can
// still read it.
func TestRecycleConservationUnderReconfig(t *testing.T) {
	const (
		P    = 4
		perW = 20000
	)
	q := MustNew[uint64](DefaultConfig(P))
	var stop atomic.Bool
	var aux sync.WaitGroup
	var reconfigs int
	aux.Add(2)
	go func() {
		defer aux.Done()
		widths := []int{16, 3, 9, 1, 6}
		for ; !stop.Load(); reconfigs++ {
			if err := q.SetWidth(widths[reconfigs%len(widths)]); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer aux.Done()
		for !stop.Load() {
			q.Len()
			runtime.Gosched()
			q.SubLens()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	got := make([][]uint64, P)
	reused := make([]int, P)
	for w := 0; w < P; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.NewHandle()
			rng := rand.New(rand.NewPCG(uint64(w), 11))
			batch := make([]uint64, 0, 8)
			for i := 0; i < perW; {
				// A slab refill only takes from the handle's ring: the ring
				// shrinks exactly when an enqueue reuses a slab.
				n := h.slabs.Len()
				if rng.IntN(8) == 0 {
					m := min(1+rng.IntN(8), perW-i)
					batch = batch[:0]
					for j := range m {
						batch = append(batch, uint64(w*perW+i+j))
					}
					h.EnqueueBatch(batch)
					i += m
				} else {
					h.Enqueue(uint64(w*perW + i))
					i++
				}
				if h.slabs.Len() < n {
					reused[w]++
				}
				switch rng.IntN(4) {
				case 0, 1:
					if v, ok := h.Dequeue(); ok {
						got[w] = append(got[w], v)
					}
				case 2:
					got[w] = h.dequeueBatchInto(got[w], len(got[w])+1+rng.IntN(4))
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	aux.Wait()

	seen := make([]int, P*perW)
	for _, vs := range got {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range q.Drain() {
		seen[v]++
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
	total := 0
	for _, n := range reused {
		total += n
	}
	if total == 0 {
		t.Fatalf("no slab refill reused a slab in %d enqueues", P*perW)
	}
	t.Logf("%d slab refills reused a retired slab; %d width changes", total, reconfigs)
}

// TestRecycleKeepsSlabsCollectable: a retired node's next pointer
// reaches every node linked after it, and nodes are cleared only when
// their slab is carved again, so a ring that keeps its slabs — the ring of
// a handle that stopped dequeuing — would keep every slab retired after
// them from the GC through those pointers, unless the slabs a ring drops
// to make room are cleared first. Here a producer allocates every slab
// (its own ring stays empty), one consumer fills its ring and stops, and a
// second consumer's ring fills and drops slabs for 100 000 more items.
// Of the slabs of that second phase only the second consumer's ring, the
// producer's current slab, the sub-queues' dummies and, per sub-queue, the
// successor of the first consumer's last node may stay reachable.
func TestRecycleKeepsSlabsCollectable(t *testing.T) {
	const width, perRound = 4, 4 * slabNodes
	q := MustNew[uint64](Config{Width: width, Depth: 64, Shift: 64, RandomHops: 2})
	prod := q.NewHandle()
	var slabs []weak.Pointer[slab[uint64]]
	var cur *slab[uint64]
	v := uint64(0)
	run := func(cons *Handle[uint64], rounds int) {
		for range rounds {
			for range perRound {
				prod.Enqueue(v)
				v++
				if prod.slab != cur {
					cur = prod.slab
					slabs = append(slabs, weak.Make(cur))
				}
			}
			for range perRound {
				if _, ok := cons.Dequeue(); !ok {
					t.Fatal("Dequeue missed on a non-empty queue")
				}
			}
		}
	}
	first := q.NewHandle()
	run(first, 2*slabRing)
	if first.slabs.Len() != slabRing {
		t.Fatalf("the first consumer's ring holds %d slabs, want it full (%d)", first.slabs.Len(), slabRing)
	}
	slabs = slabs[:0]
	run(q.NewHandle(), 400)
	cur = nil
	runtime.GC()
	runtime.GC()
	live := 0
	for _, p := range slabs {
		if p.Value() != nil {
			live++
		}
	}
	t.Logf("%d of the second phase's %d slabs reachable", live, len(slabs))
	if bound := slabRing + 1 + 2*width; live > bound {
		t.Fatalf("%d of the second phase's %d slabs still reachable, want at most %d", live, len(slabs), bound)
	}
	runtime.KeepAlive(first)
}

// TestDequeuedValueIsCollectable: the dequeue moves the value out of the
// node that becomes the dummy, so neither the sub-queue nor, once the
// node's slab retires, the handle's ring keeps it reachable. With a
// finalizer on the dequeued allocation, collection after the dequeue
// proves the queue dropped its reference.
func TestDequeuedValueIsCollectable(t *testing.T) {
	q := MustNew[*[]byte](Config{Width: 1, Depth: 64, Shift: 64, RandomHops: 0})
	h := q.NewHandle()
	big := new([]byte)
	*big = make([]byte, 1<<16)
	collected := make(chan struct{})
	runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
	h.Enqueue(big)
	h.Enqueue(new([]byte)) // second item so the queue stays non-empty
	got, ok := h.Dequeue()
	if !ok || got != big {
		t.Fatalf("Dequeue = (%p, %v), want the enqueued pointer", got, ok)
	}
	got, big = nil, nil
	// Retire the slab that holds the dequeued item's node.
	for range 2 * slabNodes {
		h.Enqueue(new([]byte))
		h.Dequeue()
	}
	if h.slabs.Len() == 0 {
		t.Fatal("no slab retired")
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if v, ok := h.Dequeue(); !ok || v == nil {
				t.Fatal("queue lost its remaining item")
			}
			return
		case <-deadline:
			t.Fatal("dequeued value still reachable: its node kept it")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
