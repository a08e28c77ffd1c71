package twodqueue

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"stack2d/internal/pad"
	"stack2d/internal/seqspec"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"default", DefaultConfig(4), true},
		{"minimal", Config{Width: 1, Depth: 1, Shift: 1}, true},
		{"zero width", Config{Width: 0, Depth: 1, Shift: 1}, false},
		{"zero depth", Config{Width: 1, Depth: 0, Shift: 1}, false},
		{"shift beyond depth", Config{Width: 1, Depth: 2, Shift: 3}, false},
		{"negative hops", Config{Width: 1, Depth: 1, Shift: 1, RandomHops: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate = %v, want ok=%v", err, c.ok)
			}
		})
	}
	if DefaultConfig(0).Width != 4 {
		t.Fatal("DefaultConfig(0) did not clamp p")
	}
}

func TestKFormula(t *testing.T) {
	cfg := Config{Width: 3, Depth: 8, Shift: 4}
	if got := cfg.K(); got != (2*8+4)*2 {
		t.Fatalf("K = %d, want 40", got)
	}
	if (Config{Width: 1, Depth: 8, Shift: 8}).K() != 0 {
		t.Fatal("width-1 queue should be strict (k=0)")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(zero Config) did not panic")
		}
	}()
	MustNew[uint64](Config{})
}

func TestEmptyDequeue(t *testing.T) {
	q := MustNew[uint64](DefaultConfig(2))
	h := q.NewHandle()
	if _, ok := h.Dequeue(); ok {
		t.Fatal("dequeue on empty returned ok")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestWidthOneIsStrictFIFO(t *testing.T) {
	q := MustNew[uint64](Config{Width: 1, Depth: 4, Shift: 4, RandomHops: 1})
	h := q.NewHandle()
	var m seqspec.FIFOModel
	for v := uint64(0); v < 300; v++ {
		h.Enqueue(v)
		m.Enqueue(v)
		if v%3 == 0 {
			got, gok := h.Dequeue()
			want, wok := m.Dequeue()
			if gok != wok || got != want {
				t.Fatalf("Dequeue = (%d,%v), want (%d,%v)", got, gok, want, wok)
			}
		}
	}
	for {
		want, wok := m.Dequeue()
		got, gok := h.Dequeue()
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

func TestSequentialKBound(t *testing.T) {
	cfgs := []Config{
		{Width: 2, Depth: 2, Shift: 1, RandomHops: 1},
		{Width: 4, Depth: 8, Shift: 8, RandomHops: 2},
		{Width: 8, Depth: 4, Shift: 2, RandomHops: 0},
	}
	for _, cfg := range cfgs {
		q := MustNew[uint64](cfg)
		h := q.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		for i := 0; i < 300; i++ {
			h.Enqueue(next)
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
			next++
		}
		for i := 0; i < 600; i++ {
			if i%2 == 0 {
				h.Enqueue(next)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
				next++
			} else {
				v, ok := h.Dequeue()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			}
		}
		for {
			v, ok := h.Dequeue()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			if !ok {
				break
			}
		}
		rep, err := (seqspec.KFIFOChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops))
		if err != nil {
			t.Errorf("cfg %+v: %v", cfg, err)
			continue
		}
		t.Logf("cfg %+v: k=%d maxObservedDist=%d", cfg, cfg.K(), rep.MaxDistance)
	}
}

func TestValueConservationSequential(t *testing.T) {
	q := MustNew[uint64](Config{Width: 6, Depth: 5, Shift: 3, RandomHops: 2})
	h := q.NewHandle()
	const n = 5000
	for v := uint64(0); v < n; v++ {
		h.Enqueue(v)
	}
	if q.Len() != n {
		t.Fatalf("Len = %d, want %d", q.Len(), n)
	}
	seen := make(map[uint64]bool, n)
	for {
		v, ok := h.Dequeue()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d dequeued twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("recovered %d values, want %d", len(seen), n)
	}
}

func TestWindowsAdvance(t *testing.T) {
	cfg := Config{Width: 2, Depth: 2, Shift: 2, RandomHops: 0}
	q := MustNew[uint64](cfg)
	h := q.NewHandle()
	for i := uint64(0); i < 100; i++ {
		h.Enqueue(i)
	}
	if q.GlobalEnq() <= cfg.Depth {
		t.Fatalf("GlobalEnq = %d, want > depth after 100 enqueues into width 2", q.GlobalEnq())
	}
	for {
		if _, ok := h.Dequeue(); !ok {
			break
		}
	}
	if q.GlobalDeq() <= cfg.Depth {
		t.Fatalf("GlobalDeq = %d, want > depth after draining", q.GlobalDeq())
	}
}

func TestConcurrentConservation(t *testing.T) {
	const workers, perW = 8, 2500
	q := MustNew[uint64](DefaultConfig(workers))
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

// TestConcurrentKWithSlack: concurrent runs respect the bound plus the
// in-flight slack documented on K (completion-order trace, so allow
// k + 2 slots per worker for trace skew plus one per worker for counter
// lag).
func TestConcurrentKWithSlack(t *testing.T) {
	cfg := Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2}
	q := MustNew[uint64](cfg)
	const workers = 4
	type stamped struct {
		seq int
		op  seqspec.Op
	}
	var mu sync.Mutex
	var ops []seqspec.Op
	record := func(op seqspec.Op) {
		mu.Lock()
		ops = append(ops, op)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	var label sync.Mutex
	next := uint64(0)
	nextLabel := func() uint64 {
		label.Lock()
		defer label.Unlock()
		next++
		return next
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.NewHandle()
			for i := 0; i < 2000; i++ {
				if i%2 == 0 {
					v := nextLabel()
					// Record the enqueue at invocation so no dequeue of v
					// can precede it in the trace; the slack absorbs the
					// resulting distance skew.
					record(seqspec.Op{Kind: seqspec.OpPush, Value: v})
					h.Enqueue(v)
				} else {
					v, ok := h.Dequeue()
					record(seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
				}
			}
		}()
	}
	wg.Wait()
	h := q.NewHandle()
	for {
		v, ok := h.Dequeue()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}
	slack := cfg.K() + 3*workers
	if _, err := (seqspec.KFIFOChecker{K: slack}).Check(seqspec.SequentialIntervals(ops)); err != nil {
		t.Fatalf("trace exceeds slackened bound %d: %v", slack, err)
	}
}

// Property: sequential conservation for arbitrary scripts and small
// configurations.
func TestPropertySequentialConservation(t *testing.T) {
	f := func(widthRaw, depthRaw uint8, script []bool) bool {
		width := int(widthRaw%5) + 1
		depth := int64(depthRaw%5) + 1
		q := MustNew[uint64](Config{Width: width, Depth: depth, Shift: depth, RandomHops: 1})
		h := q.NewHandle()
		enqueued := 0
		seen := make(map[uint64]bool)
		next := uint64(1)
		for _, isEnq := range script {
			if isEnq {
				h.Enqueue(next)
				next++
				enqueued++
			} else if v, ok := h.Dequeue(); ok {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		for {
			v, ok := h.Dequeue()
			if !ok {
				break
			}
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(seen) == enqueued
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSubQueuesOnDistinctLines checks that every active sub-queue's
// Michael–Scott header — both ends and both window counters — sits on a
// cache line of its own, for the default geometries and after a width
// growth, so operations on different sub-queues never contend for a
// header line.
func TestSubQueuesOnDistinctLines(t *testing.T) {
	grown := MustNew[uint64](DefaultConfig(1))
	h := grown.NewHandle()
	for i := uint64(0); i < 1000; i++ {
		h.Enqueue(i)
	}
	if err := grown.SetWidth(3 * DefaultConfig(1).Width); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		q    *Queue[uint64]
	}{
		{"default-p1", MustNew[uint64](DefaultConfig(1))},
		{"default-p2", MustNew[uint64](DefaultConfig(2))},
		{"default-p4", MustNew[uint64](DefaultConfig(4))},
		{"grown", grown},
	} {
		t.Run(c.name, func(t *testing.T) {
			lines := make(map[uintptr]int)
			for i, sub := range c.q.Geometry().Subs {
				line := uintptr(unsafe.Pointer(sub.q)) / pad.CacheLineSize
				if j, ok := lines[line]; ok {
					t.Fatalf("sub-queues %d and %d share cache line %#x", j, i, line*pad.CacheLineSize)
				}
				lines[line] = i
			}
		})
	}
}
