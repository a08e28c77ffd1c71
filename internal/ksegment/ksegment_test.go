package ksegment

import (
	"sync"
	"testing"
	"testing/quick"

	"stack2d/internal/seqspec"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{SegmentSize: 0}).Validate(); err == nil {
		t.Fatal("SegmentSize 0 accepted")
	}
	if err := (Config{SegmentSize: 1}).Validate(); err != nil {
		t.Fatalf("SegmentSize 1 rejected: %v", err)
	}
	if got := (Config{SegmentSize: 8}).K(); got != 7 {
		t.Fatalf("K = %d, want 7", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(zero Config) did not panic")
		}
	}()
	MustNew[int](Config{})
}

func TestSegmentSizeOneIsStrict(t *testing.T) {
	// s=1: one slot per segment means pure LIFO (each segment is a node).
	s := MustNew[uint64](Config{SegmentSize: 1})
	h := s.NewHandle()
	var m seqspec.Model
	for v := uint64(0); v < 200; v++ {
		h.Push(v)
		m.Push(v)
		if v%3 == 1 {
			got, gok := h.Pop()
			want, wok := m.Pop()
			if gok != wok || got != want {
				t.Fatalf("Pop = (%d,%v), want (%d,%v)", got, gok, want, wok)
			}
		}
	}
	for {
		want, wok := m.Pop()
		got, gok := h.Pop()
		if gok != wok {
			t.Fatal("emptiness diverged")
		}
		if !wok {
			break
		}
		if got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestEmptyPop(t *testing.T) {
	s := MustNew[int](Config{SegmentSize: 4})
	h := s.NewHandle()
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	h.Push(1)
	if v, ok := h.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = (%d,%v), want (1,true)", v, ok)
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop after drain returned ok")
	}
}

func TestSequentialKBound(t *testing.T) {
	for _, size := range []int{1, 2, 4, 16} {
		cfg := Config{SegmentSize: size}
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		for i := 0; i < 400; i++ {
			h.Push(next)
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
			next++
		}
		for i := 0; i < 800; i++ {
			if i%2 == 0 {
				h.Push(next)
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
				next++
			} else {
				v, ok := h.Pop()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			}
		}
		for {
			v, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			if !ok {
				break
			}
		}
		rep, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops))
		if err != nil {
			t.Errorf("size %d: %v", size, err)
			continue
		}
		t.Logf("size %d: k=%d maxObservedDist=%d", size, cfg.K(), rep.MaxDistance)
	}
}

func TestSegmentGrowthAndShrink(t *testing.T) {
	s := MustNew[int](Config{SegmentSize: 4})
	h := s.NewHandle()
	for i := 0; i < 40; i++ {
		h.Push(i)
	}
	if segs := s.Segments(); segs < 10 {
		t.Fatalf("Segments = %d after 40 pushes of size-4 segments, want >= 10", segs)
	}
	if got := s.Len(); got != 40 {
		t.Fatalf("Len = %d, want 40", got)
	}
	for i := 0; i < 40; i++ {
		if _, ok := h.Pop(); !ok {
			t.Fatalf("premature empty at pop %d", i)
		}
	}
	if segs := s.Segments(); segs != 1 {
		t.Fatalf("Segments = %d after drain, want 1 (last never removed)", segs)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

func TestValueConservationSequential(t *testing.T) {
	s := MustNew[uint64](Config{SegmentSize: 8})
	h := s.NewHandle()
	const n = 5000
	for v := uint64(0); v < n; v++ {
		h.Push(v)
	}
	seen := make(map[uint64]bool, n)
	for {
		v, ok := h.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("recovered %d values, want %d", len(seen), n)
	}
}

func TestConcurrentConservation(t *testing.T) {
	const (
		workers = 8
		perW    = 2500
	)
	s := MustNew[uint64](Config{SegmentSize: 8})
	popped := make([][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < perW; i++ {
				h.Push(uint64(w*perW + i))
				if i%2 == 1 {
					if v, ok := h.Pop(); ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
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

// TestConcurrentShrinkStress drives segment churn hard: tiny segments and
// alternating bursts force constant condemn/salvage/unlink cycles.
func TestConcurrentShrinkStress(t *testing.T) {
	const workers = 8
	s := MustNew[uint64](Config{SegmentSize: 2})
	var wg sync.WaitGroup
	popped := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			base := uint64(w) << 32
			for i := 0; i < 1500; i++ {
				h.Push(base | uint64(i))
				h.Push(base | uint64(i) | 1<<31)
				if v, ok := h.Pop(); ok {
					popped[w] = append(popped[w], v)
				}
				if v, ok := h.Pop(); ok {
					popped[w] = append(popped[w], v)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
		seen[v]++
	}
	want := workers * 1500 * 2
	if len(seen) != want {
		t.Fatalf("recovered %d distinct values, want %d", len(seen), want)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
}

// Property: sequential conservation holds for arbitrary scripts and sizes.
func TestPropertySequentialConservation(t *testing.T) {
	f := func(sizeRaw uint8, script []bool) bool {
		size := int(sizeRaw%8) + 1
		s := MustNew[uint64](Config{SegmentSize: size})
		h := s.NewHandle()
		pushed := make(map[uint64]bool)
		recovered := make(map[uint64]bool)
		next := uint64(1)
		for _, isPush := range script {
			if isPush {
				h.Push(next)
				pushed[next] = true
				next++
			} else if v, ok := h.Pop(); ok {
				if recovered[v] {
					return false
				}
				recovered[v] = true
			}
		}
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			if recovered[v] {
				return false
			}
			recovered[v] = true
		}
		if len(recovered) != len(pushed) {
			return false
		}
		for v := range recovered {
			if !pushed[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
