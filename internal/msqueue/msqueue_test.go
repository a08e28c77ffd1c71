package msqueue

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stack2d/internal/seqspec"
)

func TestEmptyDequeue(t *testing.T) {
	q := New[int]()
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty returned ok")
	}
	if !q.Empty() {
		t.Fatal("fresh queue not Empty")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d, want 0", q.Len())
	}
}

func TestSequentialFIFO(t *testing.T) {
	q := New[uint64]()
	var m seqspec.FIFOModel
	for v := uint64(0); v < 200; v++ {
		q.Enqueue(v)
		m.Enqueue(v)
		if v%3 == 1 {
			got, gok := q.Dequeue()
			want, wok := m.Dequeue()
			if gok != wok || got != want {
				t.Fatalf("Dequeue = (%d,%v), want (%d,%v)", got, gok, want, wok)
			}
		}
	}
	for {
		want, wok := m.Dequeue()
		got, gok := q.Dequeue()
		if gok != wok {
			t.Fatal("emptiness diverged")
		}
		if !wok {
			break
		}
		if got != want {
			t.Fatalf("Dequeue = %d, want %d", got, want)
		}
	}
}

func TestLenTracksQuiescent(t *testing.T) {
	q := New[int]()
	for i := 0; i < 10; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	for i := 0; i < 3; i++ {
		q.Dequeue()
	}
	if q.Len() != 7 {
		t.Fatalf("Len = %d, want 7", q.Len())
	}
}

// TestTryUnlink exercises the single-round unlink the 2D-Queue's window
// search runs: it reports an empty queue as neither a success nor
// contention, and hands back the old dummy and the front node, whose
// value the caller moves out, leaving the front as the new dummy.
func TestTryUnlink(t *testing.T) {
	q := New[int]()
	if old, front, contended := q.TryUnlink(); old != nil || front != nil || contended {
		t.Fatal("TryUnlink on empty misreported")
	}
	dummy := q.head.Load()
	q.Enqueue(1)
	q.Enqueue(2)
	old, front, contended := q.TryUnlink()
	if old != dummy || front == nil || contended || *front.Value() != 1 {
		t.Fatalf("TryUnlink = (%p, %v, %v), want the dummy %p and the front holding 1", old, front, contended, dummy)
	}
	if q.head.Load() != front || q.Dequeued() != 1 {
		t.Fatal("the front node is not the new dummy, or the unlink went uncounted")
	}
	if v, ok := q.Dequeue(); !ok || v != 2 {
		t.Fatalf("Dequeue = (%d, %v), want (2, true)", v, ok)
	}
}

func TestDrainOrder(t *testing.T) {
	q := New[int]()
	for i := 1; i <= 5; i++ {
		q.Enqueue(i)
	}
	got := q.Drain()
	for i, want := range []int{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("Drain = %v", got)
		}
	}
	if !q.Empty() {
		t.Fatal("not empty after drain")
	}
}

func TestConcurrentConservation(t *testing.T) {
	const workers, perW = 8, 2500
	q := New[uint64]()
	var wg sync.WaitGroup
	got := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				q.Enqueue(uint64(w*perW + i))
				if i%2 == 1 {
					if v, ok := q.Dequeue(); ok {
						got[w] = append(got[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	dequeued := 0
	for _, vs := range got {
		dequeued += len(vs)
	}
	if e, d := q.Enqueued(), q.Dequeued(); e != workers*perW || d != int64(dequeued) {
		t.Fatalf("Enqueued = %d, Dequeued = %d, want %d and %d", e, d, workers*perW, dequeued)
	}
	if n := q.Len(); int64(n) != q.Enqueued()-q.Dequeued() {
		t.Fatalf("Len = %d, want Enqueued - Dequeued = %d", n, q.Enqueued()-q.Dequeued())
	}
	seen := make(map[uint64]int)
	for _, vs := range got {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range q.Drain() {
		seen[v]++
	}
	if len(seen) != workers*perW {
		t.Fatalf("recovered %d distinct values, want %d", len(seen), workers*perW)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
}

func TestConcurrentSPSCOrder(t *testing.T) {
	// Single producer, single consumer: strict FIFO must be observable.
	const n = 20000
	q := New[uint64]()
	done := make(chan struct{})
	go func() {
		defer close(done)
		want := uint64(0)
		for want < n {
			v, ok := q.Dequeue()
			if !ok {
				continue
			}
			if v != want {
				t.Errorf("dequeued %d, want %d", v, want)
				return
			}
			want++
		}
	}()
	for v := uint64(0); v < n; v++ {
		q.Enqueue(v)
	}
	<-done
}

// Property: enqueue-all then drain preserves order.
func TestPropertyDrainPreservesOrder(t *testing.T) {
	f := func(vals []uint64) bool {
		q := New[uint64]()
		for _, v := range vals {
			q.Enqueue(v)
		}
		out := q.Drain()
		if len(out) != len(vals) {
			return false
		}
		for i := range vals {
			if out[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDequeuedValueIsCollectable is the regression test for the dummy-node
// value pinning bug: before the fix, the node a winning Dequeue turned into
// the new dummy kept its value field, so the most recently dequeued item
// stayed reachable from the queue until the next dequeue advanced past it.
// With a finalizer on the dequeued allocation, collection after the dequeue
// proves the queue dropped its reference.
func TestDequeuedValueIsCollectable(t *testing.T) {
	q := New[*[]byte]()
	big := new([]byte)
	*big = make([]byte, 1<<16)
	collected := make(chan struct{})
	runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
	q.Enqueue(big)
	q.Enqueue(new([]byte)) // second item so the queue stays non-empty
	got, ok := q.Dequeue()
	if !ok || got != big {
		t.Fatalf("Dequeue = (%p,%v), want the enqueued pointer", got, ok)
	}
	got, big = nil, nil
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			if v, ok := q.Dequeue(); !ok || v == nil {
				t.Fatal("queue lost its remaining item")
			}
			return
		case <-deadline:
			t.Fatal("dequeued value still reachable: the dummy node pinned it")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}

// TestTryEnqueue exercises the single-round enqueue used by the 2D-Queue's
// contention-hopping search.
func TestTryEnqueue(t *testing.T) {
	q := New[int]()
	for i := 0; i < 100; i++ {
		n := &Node[int]{value: i}
		for !q.TryEnqueue(n) {
		}
	}
	for want := 0; want < 100; want++ {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
	if _, ok := q.Dequeue(); ok {
		t.Fatal("queue not empty after drain")
	}
}

// TestTryEnqueueKeepsItsNodeAcrossAttempts: an attempt that meets a
// lagging tail helps it forward and leaves its node unlinked, so the retry
// links the same node. The pair allocates one node, not one per attempt.
func TestTryEnqueueKeepsItsNodeAcrossAttempts(t *testing.T) {
	q := New[int]()
	const runs = 100
	lag := make([]*Node[int], runs+1) // AllocsPerRun adds a warm-up run
	for i := range lag {
		lag[i] = &Node[int]{value: -1}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		// Link a node past the tail by hand, as a paused enqueuer's CAS
		// would, and count it: the tail now lags one node behind.
		if !q.tail.Load().next.CompareAndSwap(nil, lag[i]) {
			t.Fatal("link CAS failed on a settled tail")
		}
		q.enqueued.Add(1)
		i++
		n := &Node[int]{value: i}
		if q.TryEnqueue(n) {
			t.Fatal("attempt over a lagging tail succeeded")
		}
		if !q.TryEnqueue(n) {
			t.Fatal("attempt over a settled tail failed")
		}
	})
	if got != 1 {
		t.Fatalf("lagging-tail attempt plus retry allocates %v, want 1 (one node per value)", got)
	}
	out := q.Drain()
	if len(out) != 2*(runs+1) {
		t.Fatalf("drained %d values, want %d", len(out), 2*(runs+1))
	}
	for k := 0; k < len(out); k += 2 {
		if out[k] != -1 || out[k+1] != k/2+1 {
			t.Fatalf("drained %v at %d, want [-1 %d]", out[k:k+2], k, k/2+1)
		}
	}
}

// TestLenNotNegativeWhenDequeueOvertakesEnqueue reproduces the window in
// which an enqueuer has linked its node but not yet counted it: the node is
// linked after the tail by hand, as that enqueuer's CAS would, and a
// dequeue takes it first. Len must read 0, not -1, both before and after
// the paused enqueuer counts its operation.
func TestLenNotNegativeWhenDequeueOvertakesEnqueue(t *testing.T) {
	q := New[int]()
	if !q.tail.Load().next.CompareAndSwap(nil, &Node[int]{value: 7}) {
		t.Fatal("link CAS failed on an empty queue")
	}
	if v, ok := q.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d,%v), want (7,true)", v, ok)
	}
	if e, d := q.Enqueued(), q.Dequeued(); e != 0 || d != 1 {
		t.Fatalf("Enqueued = %d, Dequeued = %d, want 0 and 1", e, d)
	}
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d while the enqueue is uncounted, want 0", n)
	}
	q.enqueued.Add(1) // the paused enqueuer resumes and counts
	if n := q.Len(); n != 0 {
		t.Fatalf("Len = %d once both are counted, want 0", n)
	}
}
