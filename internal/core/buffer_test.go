package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"stack2d/internal/pad"
	"stack2d/internal/xrand"
)

// TestLatencySampleStridePinned pins the 1-in-64 sampling stride against
// batch interference: batch operations (and buffered combined publishes,
// which ride on them) must neither open a sample nor consume a countdown
// tick, so interleaving any number of batches between singletons leaves
// the stride exactly LatencySampleInterval singleton operations. The old
// cancel-after-pin behaviour failed this: a batch landing on the sample
// point ate the tick, deferring the next sample by a full stride.
func TestLatencySampleStridePinned(t *testing.T) {
	cfg := Config{Width: 2, Depth: 64, Shift: 64, RandomHops: 0}
	t.Run("stack-batches", func(t *testing.T) {
		h := MustNew[uint64](cfg).NewHandle()
		for i := 0; i < LatencySampleInterval-1; i++ {
			h.Push(uint64(i))
			h.PushBatch([]uint64{1, 2, 3})
			if got := h.PopBatch(3); len(got) != 3 {
				t.Fatalf("PopBatch returned %d values, want 3", len(got))
			}
		}
		if n := h.Stats().LatencySamples(); n != 0 {
			t.Fatalf("%d samples after %d singletons with interleaved batches, want 0",
				n, LatencySampleInterval-1)
		}
		h.Push(0) // singleton number LatencySampleInterval
		if n := h.Stats().LatencySamples(); n != 1 {
			t.Fatalf("%d samples after %d singletons, want exactly 1", n, LatencySampleInterval)
		}
	})
	t.Run("buffered-ops-do-not-sample", func(t *testing.T) {
		// Buffered operations publish through the batch paths; a full
		// buffered cycle must leave the singleton stride untouched too.
		h := MustNew[uint64](cfg).NewHandle()
		h.SetOpBuffer(4)
		for i := 0; i < 8*LatencySampleInterval; i++ {
			h.BufferedPush(uint64(i))
			if _, ok := h.BufferedPop(); !ok {
				t.Fatal("BufferedPop missed directly after BufferedPush")
			}
		}
		h.FlushOps()
		if n := h.Stats().LatencySamples(); n != 0 {
			t.Fatalf("%d samples from buffered-only traffic, want 0", n)
		}
	})
}

// TestSharedCountersPadded pins the mirror's false-sharing defence: the
// struct must occupy a whole number of cache lines, so back-to-back mirror
// allocations (one per handle in the registries) never share a line and a
// handle's 64-op flush cannot invalidate a neighbour's.
func TestSharedCountersPadded(t *testing.T) {
	if sz := unsafe.Sizeof(sharedCounters{}); sz%pad.CacheLineSize != 0 {
		t.Fatalf("sharedCounters is %d bytes, not a multiple of the %d-byte cache line",
			sz, pad.CacheLineSize)
	}
}

// TestSharedCountersSeqlockConsistency drives a single-writer flush loop
// maintaining the invariant Pushes == 2·Pops against a concurrent reader:
// every Load must return a cross-field-consistent snapshot. Without the
// seqlock generation the per-field atomics still tear across fields
// (a fresh Pushes paired with a stale Pops) and this fails within a few
// thousand iterations. The writer is bounded: a Load retries while a
// store is in flight, so against a writer that never pauses (as under the
// race detector, where every store is slow) it could spin forever; the
// reader loads until the writer is done.
func TestSharedCountersSeqlockConsistency(t *testing.T) {
	var c sharedCounters
	done := make(chan struct{})
	go func() {
		defer close(done)
		var st OpStats
		for i := uint64(1); i <= 200000; i++ {
			st.Pushes, st.Pops = 2*i, i
			c.Store(st)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if out := c.Load(); out.Pushes != 2*out.Pops {
			<-done
			t.Fatalf("torn snapshot: Pushes=%d Pops=%d (want Pushes == 2*Pops)", out.Pushes, out.Pops)
		}
	}
}

// TestSharedCountersStoreRoundTrip pins the changed-only publish: Store
// writes a field only when its published value differs, so every field a
// flush moved must still read back. A random walk of increments over all
// 45 fields, a step that moves one latency bucket alone, and a
// ResetStats-style drop of every field to zero each Load exactly what was
// stored.
func TestSharedCountersStoreRoundTrip(t *testing.T) {
	var c sharedCounters
	var st OpStats
	fields := []*uint64{&st.Pushes, &st.Pops, &st.EmptyPops, &st.Probes, &st.RandomHops,
		&st.CASFailures, &st.WindowRaises, &st.WindowLowers, &st.Restarts}
	for i := range st.SocketCAS {
		fields = append(fields, &st.SocketCAS[i])
	}
	for i := range st.Latency {
		fields = append(fields, &st.Latency[i])
	}
	roundTrip := func(step string) {
		t.Helper()
		c.Store(st)
		if got := c.Load(); got != st {
			t.Fatalf("%s: Load = %+v, want %+v", step, got, st)
		}
	}
	rng := xrand.New(1)
	walk := func(phase string) {
		for i := 0; i < 2000; i++ {
			for n := rng.Intn(4); n >= 0; n-- {
				*fields[rng.Intn(len(fields))] += 1 + uint64(rng.Intn(64))
			}
			roundTrip(fmt.Sprintf("%s step %d", phase, i))
		}
	}
	walk("walk")
	st.Latency[LatencyBucket(300*time.Nanosecond)]++
	roundTrip("one latency bucket")
	st = OpStats{}
	roundTrip("reset")
	walk("walk after reset")
}

// TestOpBufferSemantics covers the buffer's contract: LIFO elision of
// pending pushes, prefetch delivery order, Len counting private residents,
// the empty verdict, and flush-on-reconfiguration.
func TestOpBufferSemantics(t *testing.T) {
	cfg := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 0}

	t.Run("pending-lifo-and-len", func(t *testing.T) {
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		h.SetOpBuffer(8)
		for i := uint64(1); i <= 5; i++ {
			h.BufferedPush(i)
		}
		if p, u := h.BufferedCounts(); p != 5 || u != 0 {
			t.Fatalf("BufferedCounts = (%d,%d), want (5,0)", p, u)
		}
		if got := s.Len(); got != 5 {
			t.Fatalf("Len = %d with 5 pending pushes, want 5", got)
		}
		// Newest pending first: 5, 4, 3.
		for want := uint64(5); want >= 3; want-- {
			v, ok := h.BufferedPop()
			if !ok || v != want {
				t.Fatalf("BufferedPop = (%d,%t), want (%d,true)", v, ok, want)
			}
		}
		h.FlushOps()
		if p, _ := h.BufferedCounts(); p != 0 {
			t.Fatalf("%d pending after FlushOps, want 0", p)
		}
		if got := s.Len(); got != 2 {
			t.Fatalf("Len = %d after flush of the 2 survivors, want 2", got)
		}
		if got := s.Drain(); len(got) != 2 {
			t.Fatalf("Drain returned %d values, want 2", len(got))
		}
	})

	t.Run("size-triggered-publish", func(t *testing.T) {
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		h.SetOpBuffer(4)
		for i := uint64(1); i <= 3; i++ {
			h.BufferedPush(i)
		}
		if structural := s.Len() - 3; structural != 0 {
			t.Fatalf("published before the threshold: %d structural items", structural)
		}
		h.BufferedPush(4) // hits bufCap: combined publish
		if p, _ := h.BufferedCounts(); p != 0 {
			t.Fatalf("%d pending after threshold publish, want 0", p)
		}
		if got := len(s.Drain()); got != 4 {
			t.Fatalf("Drain returned %d values after publish, want 4", got)
		}
	})

	t.Run("prefetch-and-empty-verdict", func(t *testing.T) {
		s := MustNew[uint64](cfg)
		seedH := s.NewHandle()
		seedH.PushBatch([]uint64{1, 2, 3})
		h := s.NewHandle()
		h.SetOpBuffer(8)
		// First BufferedPop refills the prefetch with one combined batch
		// (all 3 values, topmost-first) and delivers the first.
		if v, ok := h.BufferedPop(); !ok || v != 3 {
			t.Fatalf("first BufferedPop = (%d,%t), want (3,true)", v, ok)
		}
		if _, u := h.BufferedCounts(); u != 2 {
			t.Fatalf("%d undelivered after refill, want 2", u)
		}
		if got := s.Len(); got != 2 {
			t.Fatalf("Len = %d with 2 undelivered prefetched values, want 2", got)
		}
		for want := uint64(2); want >= 1; want-- {
			if v, ok := h.BufferedPop(); !ok || v != want {
				t.Fatalf("BufferedPop = (%d,%t), want (%d,true)", v, ok, want)
			}
		}
		if _, ok := h.BufferedPop(); ok {
			t.Fatal("BufferedPop reported a value from an empty stack")
		}
		if got := s.Len(); got != 0 {
			t.Fatalf("Len = %d after full delivery, want 0", got)
		}
	})

	t.Run("reconfig-flushes-pending", func(t *testing.T) {
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		h.SetOpBuffer(16)
		h.BufferedPush(1)
		h.BufferedPush(2)
		if err := s.Reconfigure(Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 0}); err != nil {
			t.Fatal(err)
		}
		// The next buffered op reconciles with the new epoch and publishes
		// the stale pending batch before buffering anything new.
		h.BufferedPush(3)
		if p, _ := h.BufferedCounts(); p != 1 {
			t.Fatalf("%d pending after epoch flush, want 1 (just the post-reconfig push)", p)
		}
		if structural := s.Len() - 1; structural != 2 {
			t.Fatalf("epoch flush published %d items, want 2", structural)
		}
	})

	t.Run("disarm-returns-residents", func(t *testing.T) {
		s := MustNew[uint64](cfg)
		seedH := s.NewHandle()
		seedH.PushBatch([]uint64{1, 2, 3, 4})
		h := s.NewHandle()
		h.SetOpBuffer(4)
		if v, ok := h.BufferedPop(); !ok || v != 4 {
			t.Fatalf("BufferedPop = (%d,%t), want (4,true)", v, ok)
		}
		h.BufferedPush(9)
		h.SetOpBuffer(0) // disarm: pending published, prefetch handed back
		if got := s.Len(); got != 4 {
			t.Fatalf("Len = %d after disarm, want 4", got)
		}
		if h.OpBuffer() != 0 {
			t.Fatal("OpBuffer still armed after disarm")
		}
		// The returned prefetch must surface in its original relative
		// order: 3 was next in delivery order, so it pops before 2 and 1.
		want := map[uint64]bool{1: true, 2: true, 3: true, 9: true}
		got := s.Drain()
		if len(got) != 4 {
			t.Fatalf("Drain returned %d values, want 4", len(got))
		}
		for _, v := range got {
			if !want[v] {
				t.Fatalf("Drain returned unexpected value %d", v)
			}
			delete(want, v)
		}
	})
}

// TestAbandonedItemsCounted closes the item-loss hole's silent half: a
// buffered handle dropped with residents loses them (only its goroutine
// could have published them), and once the collector takes the handle
// AbandonedItems counts them and Len stops counting them.
func TestAbandonedItemsCounted(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	s.NewHandle().Push(100) // published: stays in Len
	func() {
		h := s.NewHandle()
		h.SetOpBuffer(8)
		for i := 0; i < 3; i++ {
			h.BufferedPush(i)
		}
		if got := s.Len(); got != 4 {
			t.Fatalf("Len with 3 pending = %d, want 4", got)
		}
	}()
	// The handle is unreferenced now. Collection is asynchronous, so poll:
	// a registration prunes collected entries once the registry has
	// doubled since its last prune, and a registry of one entry after
	// registering means every earlier handle was pruned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		s.NewHandle()
		if s.RegisteredHandles() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d entries", s.RegisteredHandles())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := s.AbandonedItems(); got != 3 {
		t.Fatalf("AbandonedItems = %d, want 3", got)
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len after the handle was pruned = %d, want 1 (published item only)", got)
	}
}
