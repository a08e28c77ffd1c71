package twodqueue

import (
	"reflect"
	"sync"
	"testing"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
)

// TestQueuePlacementRoundTrip mirrors the stack's placement round-trip:
// pinned enqueues, an attributed grow, an attributed shrink, conservation.
func TestQueuePlacementRoundTrip(t *testing.T) {
	q := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	q.SetPlacement(core.LocalFirst(), 2)
	if got, want := q.Placement(), []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("initial homes: got %v, want %v", got, want)
	}

	h0, h1 := q.NewHandle(), q.NewHandle()
	h0.Pin(0)
	h1.Pin(1)
	const n = 200
	for i := 0; i < n; i++ {
		h0.Enqueue(i)
		h1.Enqueue(n + i)
	}

	if err := q.ReconfigureOnSocket(Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Placement(), []int{0, 1, 0, 1, 1, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("homes after grow: got %v, want %v", got, want)
	}
	for i := 0; i < n; i++ {
		h1.Enqueue(2*n + i)
	}

	if err := q.ReconfigureOnSocket(Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Placement(), []int{0, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("homes after shrink: got %v, want %v", got, want)
	}

	seen := make(map[int]bool)
	for _, v := range q.Drain() {
		if seen[v] {
			t.Fatalf("duplicated item %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3*n {
		t.Fatalf("drained %d items, want %d", len(seen), 3*n)
	}
}

// TestQueuePlacementUnderConcurrentReconfig is the queue twin of the
// stack's race test: pinned workers vs live geometry and placement
// changes; run with -race in CI.
func TestQueuePlacementUnderConcurrentReconfig(t *testing.T) {
	q := MustNew[uint64](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2})
	q.SetPlacement(core.LocalFirst(), 2)
	const workers = 4
	const perWorker = 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			h.Pin(core.HeuristicSocket(w, 2))
			for i := 0; i < perWorker; i++ {
				h.Enqueue(uint64(w)<<32 | uint64(i))
				if i%3 == 0 {
					h.Dequeue()
				}
			}
		}(w)
	}
	widths := []int{8, 2, 6, 3, 4}
	for i, width := range widths {
		if err := q.ReconfigureOnSocket(Config{Width: width, Depth: 8, Shift: 8, RandomHops: 2}, i%2); err != nil {
			t.Fatal(err)
		}
		if homes := q.Placement(); len(homes) != width {
			t.Fatalf("placement has %d homes at width %d", len(homes), width)
		}
	}
	q.SetPlacement(core.RoundRobin(), 2)
	q.SetPlacement(core.LocalFirst(), 2)
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, v := range q.Drain() {
		if seen[v] {
			t.Fatalf("duplicated item %#x", v)
		}
		seen[v] = true
	}
}

// TestSteerableForwardsSocket: the controller's socket-attributed
// reconfiguration (adapt.SocketAware) reaches the queue's placement
// machinery with the requester.
func TestSteerableForwardsSocket(t *testing.T) {
	q := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	q.SetPlacement(core.LocalFirst(), 2)
	var st adapt.SocketAware = q
	if err := st.ReconfigureOnSocket(core.Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := q.Placement(), []int{0, 1, 0, 1, 1, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("homes after steered grow: got %v, want %v", got, want)
	}
}
