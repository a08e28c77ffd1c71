package stack2d

import "testing"

// TestWithOpBuffer covers the public buffered surface: handles from a
// WithOpBuffer stack batch and publish combined, Flush exposes the
// residents, and the pooled convenience API stays unbuffered, for New and
// NewAdaptive alike.
func TestWithOpBuffer(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Stack[int]
	}{
		{"New", func() *Stack[int] { return New[int](WithExpectedThreads(2), WithOpBuffer(4)) }},
		{"NewAdaptive", func() *Stack[int] {
			a := NewAdaptive[int](WithExpectedThreads(2), WithOpBuffer(4))
			a.Close()
			return &a.Stack
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.build()
			h := s.NewHandle()
			for i := 1; i <= 3; i++ {
				h.Push(i)
			}
			if got := s.Len(); got != 3 {
				t.Fatalf("Len = %d with 3 buffered pushes, want 3", got)
			}
			if got := len(s.Drain()); got != 0 {
				t.Fatalf("Drain returned %d values before Flush, want 0 — pushes were not buffered", got)
			}
			if v, ok := h.Pop(); !ok || v != 3 {
				t.Fatalf("Pop = (%d,%t), want (3,true) — newest buffered push", v, ok)
			}
			h.Flush()
			if got := len(s.Drain()); got != 2 {
				t.Fatalf("Drain returned %d values after Flush, want 2", got)
			}

			// The pooled convenience API must not buffer: its pushes are
			// visible to a drain immediately, no Flush required.
			s.Push(7)
			if got := s.Drain(); len(got) != 1 || got[0] != 7 {
				t.Fatalf("pooled Push not immediately published: drain = %v", got)
			}
		})
	}
}

// TestWithQueueOpBuffer covers the queue's buffered surface: combined
// publication, the pop-miss flush keeping FIFO order, and the batch
// wrappers, for NewQueue and NewAdaptiveQueue alike.
func TestWithQueueOpBuffer(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() *Queue[int]
	}{
		{"NewQueue", func() *Queue[int] { return NewQueue[int](WithExpectedThreads(2), WithOpBuffer(4)) }},
		{"NewAdaptiveQueue", func() *Queue[int] {
			a := NewAdaptiveQueue[int](WithExpectedThreads(2), WithOpBuffer(4))
			a.Close()
			return &a.Queue
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := c.build()
			h := q.NewHandle()
			for i := 1; i <= 3; i++ {
				h.Enqueue(i)
			}
			if got := q.Len(); got != 3 {
				t.Fatalf("Len = %d with 3 buffered enqueues, want 3", got)
			}
			if got := len(q.Drain()); got != 0 {
				t.Fatalf("Drain returned %d values before Flush, want 0 — enqueues were not buffered", got)
			}
			// Structure is empty, so this dequeue flushes the pending batch
			// and must serve the OLDEST value — FIFO, not the stack's
			// elision.
			if v, ok := h.Dequeue(); !ok || v != 1 {
				t.Fatalf("Dequeue = (%d,%t), want (1,true) — oldest buffered enqueue", v, ok)
			}
			h.Flush()

			h.EnqueueBatch([]int{10, 11, 12})
			got := h.DequeueBatch(16)
			want := []int{2, 3, 10, 11, 12}
			if len(got) != len(want) {
				t.Fatalf("DequeueBatch returned %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("DequeueBatch[%d] = %d, want %d", i, got[i], want[i])
				}
			}
		})
	}
}
