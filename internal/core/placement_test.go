package core

import (
	"reflect"
	"sync"
	"testing"
)

func TestHeuristicSocket(t *testing.T) {
	// Fill-socket-0-first over 8 cores per socket, wrapping.
	cases := []struct{ order, sockets, want int }{
		{0, 2, 0}, {7, 2, 0}, {8, 2, 1}, {15, 2, 1}, {16, 2, 0},
		{5, 1, 0}, {23, 2, 0}, {8, 4, 1}, {31, 4, 3}, {-1, 2, 0},
	}
	for _, c := range cases {
		if got := HeuristicSocket(c.order, c.sockets); got != c.want {
			t.Errorf("HeuristicSocket(%d, %d) = %d, want %d", c.order, c.sockets, got, c.want)
		}
	}
}

func TestPlaceSlotsBalancedWithoutRequester(t *testing.T) {
	// LocalFirst with no attribution degenerates to a balanced interleave.
	if got, want := PlaceSlots(LocalFirst(), nil, 4, -1, 2), []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LocalFirst unattributed: got %v, want %v", got, want)
	}
	if got, want := PlaceSlots(RoundRobin(), nil, 4, -1, 2), []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("RoundRobin: got %v, want %v", got, want)
	}
}

func TestPlaceSlotsRequesterFirstThenSpill(t *testing.T) {
	// Growing 4 → 8 at the request of socket 1: the new slots fill socket
	// 1 up to its fair share (4 of 8), then spill to socket 0.
	homes := PlaceSlots(LocalFirst(), []int{0, 1, 0, 1}, 8, 1, 2)
	want := []int{0, 1, 0, 1, 1, 1, 0, 0}
	if !reflect.DeepEqual(homes, want) {
		t.Fatalf("grow for socket 1: got %v, want %v", homes, want)
	}
	// Existing homes are never rewritten.
	if !reflect.DeepEqual(homes[:4], []int{0, 1, 0, 1}) {
		t.Fatalf("existing homes rewritten: %v", homes)
	}
}

func TestShrinkSurvivorsPrefersDroppingRemote(t *testing.T) {
	homes := []int{0, 1, 0, 1, 1, 1, 0, 0}
	// Shrinking 8 → 4 for socket 0 drops socket-1 slots first (from the
	// tail): 5, 4, 3, 1 go; survivors keep their relative order.
	if got, want := ShrinkSurvivors(LocalFirst(), homes, 4, 0), []int{0, 2, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("shrink for socket 0: got %v, want %v", got, want)
	}
	// Not enough remote slots: local ones go too, tail-first.
	if got, want := ShrinkSurvivors(LocalFirst(), homes, 2, 1), []int{1, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("deep shrink for socket 1: got %v, want %v", got, want)
	}
	// Blind policy or no attribution: the pre-placement trailing drop.
	if got, want := ShrinkSurvivors(RoundRobin(), homes, 4, 0), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("blind shrink: got %v, want %v", got, want)
	}
	if got, want := ShrinkSurvivors(LocalFirst(), homes, 4, -1), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("unattributed shrink: got %v, want %v", got, want)
	}
}

func TestBuildProbePlanIsPermutation(t *testing.T) {
	homes := []int{0, 1, 0, 1, 1, 0, 0, 1}
	for socket := 0; socket < 2; socket++ {
		for rot := 0; rot < 6; rot++ {
			ord, pos, localN := buildProbePlan(homes, socket, rot)
			if localN != 4 {
				t.Fatalf("socket %d: localN = %d, want 4", socket, localN)
			}
			seen := make([]bool, len(homes))
			for at, slot := range ord {
				if seen[slot] {
					t.Fatalf("socket %d rot %d: slot %d appears twice in %v", socket, rot, slot, ord)
				}
				seen[slot] = true
				if pos[slot] != at {
					t.Fatalf("pos inverse broken at slot %d", slot)
				}
				if at < localN && homes[slot] != socket {
					t.Fatalf("socket %d: remote slot %d inside local section of %v", socket, slot, ord)
				}
			}
		}
	}
}

// TestStackPlacementRoundTrip drives a placed stack through pinned pushes,
// an attributed grow and an attributed shrink, checking homes at each step
// and that no item is lost.
func TestStackPlacementRoundTrip(t *testing.T) {
	s := MustNew[int](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	s.SetPlacement(LocalFirst(), 2)
	if got, want := s.Placement(), []int{0, 1, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("initial homes: got %v, want %v", got, want)
	}

	h0, h1 := s.NewHandle(), s.NewHandle()
	h0.Pin(0)
	h1.Pin(1)
	const n = 200
	batch := make([]int, 0, n)
	for i := 0; i < n; i++ {
		h0.Push(i)
		batch = append(batch, n+i)
	}
	h1.PushBatch(batch) // batches walk the same probe plan as Push
	got := h1.PopBatch(10)
	if len(got) != 10 {
		t.Fatalf("PopBatch returned %d items, want 10", len(got))
	}
	h1.PushBatch(got)

	// Grow at socket 1's request: the four new slots fill socket 1 first.
	if err := s.ReconfigureOnSocket(Config{Width: 8, Depth: 8, Shift: 8, RandomHops: 1}, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Placement(), []int{0, 1, 0, 1, 1, 1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("homes after grow: got %v, want %v", got, want)
	}
	for i := 0; i < n; i++ {
		h0.Push(2*n + i)
	}

	// Shrink at socket 0's request: socket-1 slots are dropped first.
	if err := s.ReconfigureOnSocket(Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := s.Placement(), []int{0, 0, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("homes after shrink: got %v, want %v", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	seen := make(map[int]bool)
	for _, v := range s.Drain() {
		if seen[v] {
			t.Fatalf("duplicated item %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3*n {
		t.Fatalf("drained %d items, want %d", len(seen), 3*n)
	}
}

// TestPlacementSocketCASAttribution: a pinned handle's contention lands in
// its socket's bucket, and the buckets sum to CASFailures.
func TestPlacementSocketCASAttribution(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	s.SetPlacement(LocalFirst(), 2)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			h.Pin(w % 2)
			for i := 0; i < 5000; i++ {
				h.Push(i)
				h.Pop()
			}
			h.FlushStats()
		}(w)
	}
	wg.Wait()
	st := s.StatsSnapshot()
	var sum uint64
	for _, c := range st.SocketCAS {
		sum += c
	}
	if sum != st.CASFailures {
		t.Fatalf("SocketCAS sums to %d, CASFailures %d", sum, st.CASFailures)
	}
	if got := st.PressureSocket(); st.CASFailures > 0 && (got != 0 && got != 1) {
		t.Fatalf("PressureSocket = %d with failures on sockets 0/1 only", got)
	}
}

// TestPinBeyondSocketCountAttributesReduced: a handle pinned past the
// configured socket count probes as (hint mod nsockets) and must report
// its pressure on that same socket — otherwise LocalFirst would discard
// the requester every time. One lost race is scripted through the
// handle's own window search, so the check holds on every run; the pinned
// workers then add whatever real contention the scheduler allows, all of
// which must land on the reduced socket too.
func TestPinBeyondSocketCountAttributesReduced(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0})
	s.SetPlacement(LocalFirst(), 2)
	h := s.NewHandle()
	h.Pin(3)
	lost := false
	h.Search(h.PinOp(), 0, &s.global.V, func(*subStack[int], int64) Visit {
		if !lost {
			lost = true
			return Lost
		}
		return Done
	})
	h.Unpin()
	h.FlushStats()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			h.Pin(3) // 4-socket hint on a 2-socket placement: probes as socket 1
			for i := 0; i < 5000; i++ {
				h.Push(i)
				h.Pop()
			}
			h.FlushStats()
		}(w)
	}
	wg.Wait()
	st := s.StatsSnapshot()
	if st.CASFailures == 0 {
		t.Fatal("the scripted lost race was not counted")
	}
	if st.SocketCAS[3] != 0 {
		t.Fatalf("pressure attributed to raw hint 3 (%d failures) instead of reduced socket 1", st.SocketCAS[3])
	}
	if st.SocketCAS[1] != st.CASFailures {
		t.Fatalf("SocketCAS[1] = %d, want all %d failures", st.SocketCAS[1], st.CASFailures)
	}
}

// TestPlacementUnderConcurrentReconfig hammers a placed stack with pinned
// workers while the geometry and the placement itself change; run with
// -race in CI. Conservation is checked at the end.
func TestPlacementUnderConcurrentReconfig(t *testing.T) {
	s := MustNew[uint64](Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2})
	s.SetPlacement(LocalFirst(), 2)
	const workers = 4
	const perWorker = 4000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			h.Pin(HeuristicSocket(w, 2))
			for i := 0; i < perWorker; i++ {
				h.Push(uint64(w)<<32 | uint64(i))
				if i%3 == 0 {
					h.Pop()
				}
			}
		}(w)
	}
	widths := []int{8, 2, 6, 3, 4}
	for i, width := range widths {
		if err := s.ReconfigureOnSocket(Config{Width: width, Depth: 8, Shift: 8, RandomHops: 2}, i%2); err != nil {
			t.Fatal(err)
		}
		if homes := s.Placement(); len(homes) != width {
			t.Fatalf("placement has %d homes at width %d", len(homes), width)
		}
	}
	s.SetPlacement(RoundRobin(), 2) // live policy swap
	s.SetPlacement(LocalFirst(), 2)
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint64]bool)
	for _, v := range s.Drain() {
		if seen[v] {
			t.Fatalf("duplicated item %#x", v)
		}
		seen[v] = true
	}
}
