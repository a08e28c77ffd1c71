package msqueue

import (
	"testing"

	"stack2d/internal/core"
)

// TestStatsVariantsMatchPlain checks the instrumented operations preserve
// FIFO behaviour and count exactly what they did (enqueue→Pushes,
// dequeue→Pops/EmptyPops — OpStats speaks the stack vocabulary), in the
// queue's own per-end counts as well as in st.
func TestStatsVariantsMatchPlain(t *testing.T) {
	q := New[int]()
	var st core.OpStats
	const n = 100
	for i := 0; i < n; i++ {
		q.EnqueueStats(i, &st)
	}
	if st.Pushes != n {
		t.Fatalf("Pushes = %d, want %d", st.Pushes, n)
	}
	if e, d, l := q.Enqueued(), q.Dequeued(), q.Len(); e != n || d != 0 || l != n {
		t.Fatalf("Enqueued = %d, Dequeued = %d, Len = %d, want %d, 0, %d", e, d, l, n, n)
	}
	for i := 0; i < n; i++ {
		v, ok := q.DequeueStats(&st)
		if !ok || v != i {
			t.Fatalf("DequeueStats = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if _, ok := q.DequeueStats(&st); ok {
		t.Fatal("DequeueStats on empty queue returned ok")
	}
	if st.Pops != n || st.EmptyPops != 1 {
		t.Fatalf("Pops = %d EmptyPops = %d, want %d and 1", st.Pops, st.EmptyPops, n)
	}
	if e, d, l := q.Enqueued(), q.Dequeued(), q.Len(); e != n || d != n || l != 0 {
		t.Fatalf("Enqueued = %d, Dequeued = %d, Len = %d, want %d, %d, 0", e, d, l, n, n)
	}
	if st.CASFailures != 0 {
		t.Fatalf("CASFailures = %d in a sequential run", st.CASFailures)
	}
}

// TestOpAllocs pins the per-operation allocation profile of both variants:
// one node per enqueue, zero per dequeue, instrumented identical to plain.
func TestOpAllocs(t *testing.T) {
	q := New[uint64]()
	var st core.OpStats

	if got := testing.AllocsPerRun(200, func() { q.Enqueue(1) }); got != 1 {
		t.Errorf("Enqueue allocs/op = %g, want 1", got)
	}
	if got := testing.AllocsPerRun(200, func() { q.Dequeue() }); got != 0 {
		t.Errorf("Dequeue allocs/op = %g, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { q.EnqueueStats(1, &st) }); got != 1 {
		t.Errorf("EnqueueStats allocs/op = %g, want 1", got)
	}
	if got := testing.AllocsPerRun(200, func() { q.DequeueStats(&st) }); got != 0 {
		t.Errorf("DequeueStats allocs/op = %g, want 0", got)
	}
}

// TestDequeueStatsValueIsCollectable extends the dummy-node regression
// (TestDequeuedValueIsCollectable) to the instrumented variant: the
// winner must move the value out of the new dummy here too.
func TestDequeueStatsValueIsCollectable(t *testing.T) {
	q := New[*int]()
	var st core.OpStats
	v := new(int)
	q.EnqueueStats(v, &st)
	got, ok := q.DequeueStats(&st)
	if !ok || got != v {
		t.Fatal("DequeueStats did not return the enqueued value")
	}
	// The new dummy is the node that carried v; its value must be zeroed.
	if dummy := q.head.Load(); dummy.value != nil {
		t.Fatal("DequeueStats left the dequeued value pinned in the dummy node")
	}
}

func BenchmarkEnqueueDequeue(b *testing.B) {
	q := New[uint64]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Enqueue(uint64(i))
		q.Dequeue()
	}
}

func BenchmarkEnqueueDequeueStats(b *testing.B) {
	q := New[uint64]()
	var st core.OpStats
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.EnqueueStats(uint64(i), &st)
		q.DequeueStats(&st)
	}
}
