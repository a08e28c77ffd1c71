package stack2d_test

import (
	"fmt"
	"sync"
	"testing"

	"stack2d"
)

func TestQueueBasic(t *testing.T) {
	q := stack2d.NewQueue[string](stack2d.WithExpectedThreads(2))
	h := q.NewHandle()
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue on empty returned ok")
	}
	h.Enqueue("a")
	h.Enqueue("b")
	if q.Len() != 2 {
		t.Fatalf("Len = %d, want 2", q.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, ok := h.Dequeue()
		if !ok {
			t.Fatal("premature empty")
		}
		seen[v] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("values lost: %v", seen)
	}
}

func TestQueueConfigAndK(t *testing.T) {
	q, err := stack2d.NewQueueWithConfig[int](stack2d.Config{
		Width: 3, Depth: 8, Shift: 4, RandomHops: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := q.K(); got != (2*8+4)*2 {
		t.Fatalf("K = %d, want 40", got)
	}
	if q.Config().Width != 3 {
		t.Fatalf("Config lost: %+v", q.Config())
	}
}

func TestQueueWithConfigRejectsInvalid(t *testing.T) {
	if _, err := stack2d.NewQueueWithConfig[int](stack2d.Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestQueueWidthOneStrictFIFO(t *testing.T) {
	q, err := stack2d.NewQueueWithConfig[uint64](stack2d.Config{
		Width: 1, Depth: 16, Shift: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := q.NewHandle()
	for v := uint64(1); v <= 100; v++ {
		h.Enqueue(v)
	}
	for want := uint64(1); want <= 100; want++ {
		v, ok := h.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

func TestQueueConcurrentConservation(t *testing.T) {
	q := stack2d.NewQueue[uint64](stack2d.WithExpectedThreads(4))
	const workers, perW = 8, 1500
	var wg sync.WaitGroup
	got := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.NewHandle()
			for i := 0; i < perW; i++ {
				h.Enqueue(uint64(w*perW + i))
				if i%2 == 1 {
					if v, ok := h.Dequeue(); ok {
						got[w] = append(got[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
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

func TestStrictQueueFIFO(t *testing.T) {
	q := stack2d.NewStrictQueue[int]()
	if _, ok := q.Dequeue(); ok {
		t.Fatal("dequeue on empty strict queue returned ok")
	}
	for i := 1; i <= 10; i++ {
		q.Enqueue(i)
	}
	if q.Len() != 10 {
		t.Fatalf("Len = %d, want 10", q.Len())
	}
	for want := 1; want <= 10; want++ {
		v, ok := q.Dequeue()
		if !ok || v != want {
			t.Fatalf("Dequeue = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

func TestQueueOptionsParity(t *testing.T) {
	// The queue and the stack read one option set the same way: every
	// option list resolves to the same configuration for both.
	type row struct {
		name string
		opts []stack2d.Option
		k    int64 // the WithRelaxation budget; -1 when the row has none
	}
	rows := []row{
		{"none", nil, -1},
		{"threads3", []stack2d.Option{stack2d.WithExpectedThreads(3)}, -1},
		{"depth8", []stack2d.Option{stack2d.WithDepth(8)}, -1},
		{"shift128", []stack2d.Option{stack2d.WithShift(128)}, -1},
		{"shift16", []stack2d.Option{stack2d.WithShift(16)}, -1},
		{"explicit", []stack2d.Option{
			stack2d.WithWidth(3), stack2d.WithDepth(16), stack2d.WithShift(4), stack2d.WithRandomHops(1),
		}, -1},
	}
	for _, k := range []int64{0, 2, 50, 1000, 100000} {
		rows = append(rows, row{fmt.Sprintf("relaxation%d", k),
			[]stack2d.Option{stack2d.WithRelaxation(k), stack2d.WithExpectedThreads(4)}, k})
	}
	for _, r := range rows {
		q := stack2d.NewQueue[int](r.opts...)
		if got, want := q.Config(), stack2d.New[int](r.opts...).Config(); got != want {
			t.Errorf("%s: queue config %+v, stack config %+v", r.name, got, want)
		}
		if r.k >= 0 && q.K() > r.k {
			t.Errorf("%s: queue K() = %d exceeds the budget %d", r.name, q.K(), r.k)
		}
	}

	// Invalid combinations panic, as for the stack.
	defer func() {
		if recover() == nil {
			t.Fatal("invalid queue options did not panic")
		}
	}()
	stack2d.NewQueue[int](stack2d.WithDepth(4), stack2d.WithShift(9))
}

func TestQueueShiftOnlyLiftsDepth(t *testing.T) {
	// Regression: a queue's lone shift override beyond the default depth
	// used to panic in Validate even though the intent is unambiguous — a
	// lone shift override lifts depth to match.
	q := stack2d.NewQueue[int](stack2d.WithShift(128))
	cfg := q.Config()
	if cfg.Shift != 128 || cfg.Depth != 128 {
		t.Fatalf("shift-only option gave depth %d shift %d, want 128/128", cfg.Depth, cfg.Shift)
	}
	// A shift below the default depth must not disturb depth.
	if got := stack2d.NewQueue[int](stack2d.WithShift(16)).Config(); got.Shift != 16 || got.Depth != 64 {
		t.Fatalf("small shift override gave depth %d shift %d, want 64/16", got.Depth, got.Shift)
	}
}
