package twodqueue

import (
	"runtime"
	"testing"
	"time"

	"stack2d/internal/core"
)

// TestQueueLatencySampleStridePinned is the queue twin of core's stride
// pin: batch operations must neither open a latency sample nor consume a
// countdown tick, so the 1-in-64 stride counts singleton operations only.
func TestQueueLatencySampleStridePinned(t *testing.T) {
	cfg := Config{Width: 2, Depth: 64, Shift: 64, RandomHops: 0}
	t.Run("queue-batches", func(t *testing.T) {
		h := MustNew[uint64](cfg).NewHandle()
		for i := 0; i < core.LatencySampleInterval-1; i++ {
			h.Enqueue(uint64(i))
			h.EnqueueBatch([]uint64{1, 2, 3})
			if got := h.DequeueBatch(4); len(got) != 4 {
				t.Fatalf("DequeueBatch returned %d values, want 4", len(got))
			}
		}
		if n := h.Stats().LatencySamples(); n != 0 {
			t.Fatalf("%d samples after %d singletons with interleaved batches, want 0",
				n, core.LatencySampleInterval-1)
		}
		h.Enqueue(0) // singleton number core.LatencySampleInterval
		if n := h.Stats().LatencySamples(); n != 1 {
			t.Fatalf("%d samples after %d singletons, want exactly 1", n, core.LatencySampleInterval)
		}
	})
	t.Run("buffered-ops-do-not-sample", func(t *testing.T) {
		h := MustNew[uint64](cfg).NewHandle()
		h.SetOpBuffer(4)
		for i := 0; i < 8*core.LatencySampleInterval; i++ {
			h.BufferedEnqueue(uint64(i))
			if _, ok := h.BufferedDequeue(); !ok {
				t.Fatal("BufferedDequeue missed with the handle's own enqueues pending")
			}
		}
		h.FlushOps()
		if n := h.Stats().LatencySamples(); n != 0 {
			t.Fatalf("%d samples from buffered-only traffic, want 0", n)
		}
	})
}

// TestQueueBatchOps pins the batch primitives' contract: order, the
// per-value work accounting, and the empty verdict.
func TestQueueBatchOps(t *testing.T) {
	cfg := Config{Width: 1, Depth: 4, Shift: 4, RandomHops: 0}
	q := MustNew[uint64](cfg)
	h := q.NewHandle()
	// 10 items through a depth-4 window: forces window raises mid-batch.
	vs := make([]uint64, 10)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	h.EnqueueBatch(vs)
	if got := q.Len(); got != 10 {
		t.Fatalf("Len = %d after EnqueueBatch of 10, want 10", got)
	}
	// Width 1: strict FIFO, so the batch must come back in order.
	got := h.DequeueBatch(10)
	if len(got) != 10 {
		t.Fatalf("DequeueBatch returned %d values, want 10", len(got))
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("DequeueBatch[%d] = %d, want %d (FIFO order lost)", i, v, i+1)
		}
	}
	if extra := h.DequeueBatch(4); len(extra) != 0 {
		t.Fatalf("DequeueBatch returned %d values from an empty queue", len(extra))
	}
	st := h.Stats()
	if st.Pushes != 10 || st.Pops != 10 {
		t.Fatalf("stats Pushes=%d Pops=%d, want 10/10", st.Pushes, st.Pops)
	}
	if st.EmptyPops != 1 {
		t.Fatalf("EmptyPops = %d after one empty DequeueBatch, want 1", st.EmptyPops)
	}
	// A buffered dequeue whose refill comes back empty is one empty pop
	// too (core's TestEmptyBatchPopCountsOneEmptyPop is the stack side).
	b := q.NewHandle()
	b.SetOpBuffer(4)
	if v, ok := b.BufferedDequeue(); ok {
		t.Fatalf("BufferedDequeue on an empty queue returned %d", v)
	}
	if st := b.Stats(); st.EmptyPops != 1 || st.Ops() != 1 {
		t.Fatalf("after one empty BufferedDequeue: EmptyPops %d, Ops %d; want 1, 1", st.EmptyPops, st.Ops())
	}
}

// TestQueueOpBufferSemantics covers the FIFO buffer contract: pending
// never served directly, the pop-miss flush, Len counting residents, and
// the disarm path.
func TestQueueOpBufferSemantics(t *testing.T) {
	cfg := Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 0}

	t.Run("pop-miss-flush-preserves-fifo", func(t *testing.T) {
		q := MustNew[uint64](cfg)
		h := q.NewHandle()
		h.SetOpBuffer(8)
		for i := uint64(1); i <= 3; i++ {
			h.BufferedEnqueue(i)
		}
		if p, u := h.BufferedCounts(); p != 3 || u != 0 {
			t.Fatalf("BufferedCounts = (%d,%d), want (3,0)", p, u)
		}
		if got := q.Len(); got != 3 {
			t.Fatalf("Len = %d with 3 pending enqueues, want 3", got)
		}
		// The structure is empty, so this dequeue must flush the pending
		// batch and serve 1 first — NOT the newest pending value.
		for want := uint64(1); want <= 3; want++ {
			v, ok := h.BufferedDequeue()
			if !ok || v != want {
				t.Fatalf("BufferedDequeue = (%d,%t), want (%d,true)", v, ok, want)
			}
		}
		if _, ok := h.BufferedDequeue(); ok {
			t.Fatal("BufferedDequeue reported a value from an empty queue")
		}
		if got := q.Len(); got != 0 {
			t.Fatalf("Len = %d after full delivery, want 0", got)
		}
	})

	t.Run("size-triggered-publish", func(t *testing.T) {
		q := MustNew[uint64](cfg)
		h := q.NewHandle()
		h.SetOpBuffer(4)
		for i := uint64(1); i <= 3; i++ {
			h.BufferedEnqueue(i)
		}
		if structural := len(q.Drain()); structural != 0 {
			t.Fatalf("published before the threshold: %d structural items", structural)
		}
		h.BufferedEnqueue(4) // hits bufCap: combined publish
		if p, _ := h.BufferedCounts(); p != 0 {
			t.Fatalf("%d pending after threshold publish, want 0", p)
		}
		if got := len(q.Drain()); got != 4 {
			t.Fatalf("Drain returned %d values after publish, want 4", got)
		}
	})

	t.Run("prefetch-fifo-and-disarm", func(t *testing.T) {
		q := MustNew[uint64](cfg)
		seedH := q.NewHandle()
		seedH.EnqueueBatch([]uint64{1, 2, 3, 4})
		h := q.NewHandle()
		h.SetOpBuffer(8)
		if v, ok := h.BufferedDequeue(); !ok || v != 1 {
			t.Fatalf("BufferedDequeue = (%d,%t), want (1,true)", v, ok)
		}
		if _, u := h.BufferedCounts(); u != 3 {
			t.Fatalf("%d undelivered after refill, want 3", u)
		}
		if got := q.Len(); got != 3 {
			t.Fatalf("Len = %d with 3 undelivered prefetched values, want 3", got)
		}
		h.SetOpBuffer(0) // disarm: prefetch re-enqueued at the back
		if h.OpBuffer() != 0 {
			t.Fatal("OpBuffer still armed after disarm")
		}
		got := q.Drain()
		if len(got) != 3 {
			t.Fatalf("Drain returned %d values after disarm, want 3", len(got))
		}
		// Nothing else was in the queue, so the returned values keep their
		// relative delivery order even at the back.
		for i, want := range []uint64{2, 3, 4} {
			if got[i] != want {
				t.Fatalf("Drain[%d] = %d, want %d", i, got[i], want)
			}
		}
	})

	t.Run("reconfig-flushes-pending", func(t *testing.T) {
		q := MustNew[uint64](cfg)
		h := q.NewHandle()
		h.SetOpBuffer(16)
		h.BufferedEnqueue(1)
		h.BufferedEnqueue(2)
		if err := q.Reconfigure(Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 0}); err != nil {
			t.Fatal(err)
		}
		h.BufferedEnqueue(3)
		if p, _ := h.BufferedCounts(); p != 1 {
			t.Fatalf("%d pending after epoch flush, want 1 (just the post-reconfig enqueue)", p)
		}
		if structural := len(q.Drain()); structural != 2 {
			t.Fatalf("epoch flush published %d items, want 2", structural)
		}
	})
}

// TestQueueAbandonedItemsCounted is core's TestAbandonedItemsCounted on the
// queue: 3 pending enqueues lost with a dropped handle are counted once the
// registry prunes it, and leave Len.
func TestQueueAbandonedItemsCounted(t *testing.T) {
	q := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	q.NewHandle().Enqueue(100) // published: stays in Len
	func() {
		h := q.NewHandle()
		h.SetOpBuffer(8)
		for i := 0; i < 3; i++ {
			h.BufferedEnqueue(i)
		}
		if got := q.Len(); got != 4 {
			t.Fatalf("Len with 3 pending = %d, want 4", got)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		q.NewHandle() // registering prunes collected entries
		if q.RegisteredHandles() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("registry still holds %d entries", q.RegisteredHandles())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := q.AbandonedItems(); got != 3 {
		t.Fatalf("AbandonedItems = %d, want 3", got)
	}
	if got := q.Len(); got != 1 {
		t.Fatalf("Len after the handle was pruned = %d, want 1 (published item only)", got)
	}
}
