package core

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stack2d/internal/yield"
)

// TestRecycleWaitsForPinnedHandle: a handle pinned mid-operation on a
// slot's current descriptor keeps that descriptor from being reused for
// as long as it stays pinned, however many push/pop cycles another handle
// runs on the slot; the era moves at most one step past its pin. Once it
// unpins, those cycles stop allocating.
func TestRecycleWaitsForPinnedHandle(t *testing.T) {
	s := MustNew[uint64](Config{Width: 1, Depth: 64, Shift: 64, RandomHops: 0})
	a, b := s.NewHandle(), s.NewHandle()
	b.Push(1)
	geo := a.PinOp()
	slot := geo.Subs[0]
	held := slot.load()
	pinned := s.era.V.Load()
	v := uint64(2)
	for n := 0; n < 10000; n++ {
		if _, ok := b.Pop(); !ok {
			t.Fatalf("cycle %d: Pop missed on a non-empty stack", n)
		}
		b.Push(v)
		v++
		if slot.load() == held {
			t.Fatalf("cycle %d: a push reused the descriptor a pinned handle holds", n)
		}
	}
	if held.count != 1 || held.top.value != 1 || held.below == nil {
		t.Fatalf("the held descriptor was rewritten: count %d, value %d", held.count, held.top.value)
	}
	if e := s.era.V.Load(); e > pinned+1 {
		t.Fatalf("era moved from %d to %d while a handle stayed pinned at %d", pinned, e, pinned)
	}
	a.Unpin()
	cycle := func() {
		b.Pop()
		b.Push(v)
		v++
	}
	for range 4 {
		cycle()
	}
	if got := allocsTotal(1000, cycle); got != 0 {
		t.Fatalf("after the unpin, 1000 Pop+Push cycles allocate %d times, want 0", got)
	}
}

// TestEraTagReadAfterRemovingCAS: a pop tags the descriptor it removes
// with the era read after its CAS, not the era it pinned at. Here the era
// moves while B's Pop is pinned (at its window move), and A pins at the
// new era and loads the descriptor B then removes; tagged with B's pinned
// era, the descriptor would be reusable while A still holds it.
func TestEraTagReadAfterRemovingCAS(t *testing.T) {
	s := MustNew[uint64](Config{Width: 1, Depth: 1, Shift: 1, RandomHops: 0})
	a, b := s.NewHandle(), s.NewHandle()
	b.Push(1)
	b.Push(2)
	// Lift the window one step above the top item, so B's Pop moves it
	// back down before it can take the item.
	s.global.V.Add(1)
	var (
		slot   *subStack[uint64]
		held   *descriptor[uint64]
		before uint64
	)
	yield.Gate = func(p yield.Point) {
		if p != yield.PointWindowMove || held != nil {
			return
		}
		before = s.era.V.Load()
		s.tryAdvance()
		slot = a.PinOp().Subs[0]
		held = slot.load()
	}
	defer func() { yield.Gate = nil }()
	v, ok := b.Pop()
	if held == nil {
		t.Fatal("B's Pop did not move the window")
	}
	if !ok || v != 2 {
		t.Fatalf("Pop = (%d, %v), want (2, true)", v, ok)
	}
	if e := s.era.V.Load(); e != before+1 {
		t.Fatalf("era %d, want %d: the advance under B's pin did not happen", e, before+1)
	}
	for n := uint64(0); n < 1000; n++ {
		b.Push(n)
		if slot.load() == held {
			t.Fatalf("cycle %d: a push reused the descriptor a handle pinned after the advance holds", n)
		}
		b.Pop()
	}
	a.Unpin()
}

// TestReaderPinHoldsEra: the reader pin holds the era like a handle's pin,
// letting it move at most one step past, and the readers that take it
// leave it released; none of them registers a handle.
func TestReaderPinHoldsEra(t *testing.T) {
	s := MustNew[uint64](DefaultConfig(1))
	s.NewHandle().Push(1)
	regs := s.RegisteredHandles()
	e := s.era.V.Load()
	s.pinRead()
	s.tryAdvance()
	s.tryAdvance()
	if got := s.era.V.Load(); got != e+1 {
		t.Fatalf("era %d under a reader pinned at %d, want %d", got, e, e+1)
	}
	s.unpinRead()
	s.tryAdvance()
	if got := s.era.V.Load(); got != e+2 {
		t.Fatalf("era %d after the reader unpinned, want %d", got, e+2)
	}
	if s.Len() != 1 || s.Empty() || len(s.SubCounts()) != 4 || s.CheckInvariants() != nil {
		t.Fatal("readers misreport a one-item stack")
	}
	if p := s.readPin.Load(); p != 0 {
		t.Fatalf("reader pin left at %d", p)
	}
	if got := s.RegisteredHandles(); got != regs {
		t.Fatalf("readers changed the registry from %d to %d entries", regs, got)
	}
}

// TestReaderPinHoldsHandoff: the shell runs a width shrink's Handoff hook
// under the reader pin, whatever the structure (the queue's handoff
// enqueues onto survivor tails its clients may be unlinking), so while the
// hook runs the era moves at most one step past the pin.
func TestReaderPinHoldsHandoff(t *testing.T) {
	s := MustNew[uint64](DefaultConfig(2))
	h := s.NewHandle()
	for i := range uint64(64) {
		h.Push(i)
	}
	var pinned, era uint64
	handoff := s.hooks.Handoff
	s.hooks.Handoff = func(next *Geometry[subStack[uint64]], dropped []*subStack[uint64]) int64 {
		pinned = s.readPin.Load()
		s.tryAdvance()
		s.tryAdvance()
		era = s.era.V.Load()
		return handoff(next, dropped)
	}
	if err := s.SetWidth(1); err != nil {
		t.Fatal(err)
	}
	if pinned == 0 {
		t.Fatal("the handoff ran without the reader pin")
	}
	if era > pinned+1 {
		t.Fatalf("era %d during a handoff pinned at %d, want at most %d", era, pinned, pinned+1)
	}
	if p := s.readPin.Load(); p != 0 {
		t.Fatalf("reader pin left at %d after the handoff", p)
	}
	if got := s.Len(); got != 64 {
		t.Fatalf("Len = %d after the shrink, want 64", got)
	}
}

// TestRecycleNeverWaitsOnRegistryLock: the era advance only tries the
// registry lock, so pushes and pops complete while another goroutine
// holds it; the pushes allocate instead of reusing, and the era stays.
func TestRecycleNeverWaitsOnRegistryLock(t *testing.T) {
	const workers, cycles = 2, 5000
	s := MustNew[uint64](DefaultConfig(workers))
	hs := make([]*Handle[uint64], workers) // registering takes the lock
	for i := range hs {
		hs[i] = s.NewHandle()
	}
	s.hMu.Lock()
	era := s.era.V.Load()
	var popped atomic.Int64
	var wg sync.WaitGroup
	for w, h := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				h.Push(uint64(w*cycles + i))
				if _, ok := h.Pop(); ok {
					popped.Add(1)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		s.hMu.Unlock()
		t.Fatal("operations did not complete while the registry lock was held")
	}
	e := s.era.V.Load()
	s.hMu.Unlock()
	if e != era {
		t.Fatalf("era moved from %d to %d while the registry lock was held", era, e)
	}
	if got := int64(s.Len()) + popped.Load(); got != workers*cycles {
		t.Fatalf("Len + pops = %d, want %d pushes", got, workers*cycles)
	}
}

// TestRecycleConservationUnderReconfig hammers recycling together with
// every other party that reads descriptors: P handles run push/pop mixes
// while a reconfigurer shrinks and grows the width (the shrink splice
// reads the survivors' descriptors) and a reader calls Len, Empty and
// SubCounts. Every item comes out exactly once, and the pushes reuse
// descriptors. Under -race it also checks that no descriptor is rewritten
// while an operation, the splice or a reader can still read it.
func TestRecycleConservationUnderReconfig(t *testing.T) {
	const (
		P    = 4
		perW = 20000
	)
	s := MustNew[uint64](DefaultConfig(P))
	var stop atomic.Bool
	var aux sync.WaitGroup
	var reconfigs int
	aux.Add(2)
	go func() {
		defer aux.Done()
		widths := []int{16, 3, 9, 1, 6}
		for ; !stop.Load(); reconfigs++ {
			if err := s.SetWidth(widths[reconfigs%len(widths)]); err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched()
		}
	}()
	go func() {
		defer aux.Done()
		for !stop.Load() {
			s.Len()
			runtime.Gosched()
			s.SubCounts()
			runtime.Gosched()
			s.Empty()
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	popped := make([][]uint64, P)
	reused := make([]int, P)
	for w := 0; w < P; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := s.NewHandle()
			rng := rand.New(rand.NewPCG(uint64(w), 7))
			for i := 0; i < perW; i++ {
				// A push only takes from the handle's ring: it shrinks
				// exactly when the push reuses a descriptor.
				n := h.ring.Len()
				h.Push(uint64(w*perW + i))
				if h.ring.Len() < n {
					reused[w]++
				}
				if rng.IntN(2) == 0 {
					if v, ok := h.Pop(); ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}()
	}
	wg.Wait()
	stop.Store(true)
	aux.Wait()

	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	seen := make([]int, P*perW)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
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
		t.Fatalf("no push reused a descriptor in %d pushes", P*perW)
	}
	t.Logf("%d of %d pushes reused a descriptor; %d width changes, era %d", total, P*perW, reconfigs, s.era.V.Load())
}
