package core

import (
	"sync"
	"testing"
	"testing/quick"

	"stack2d/internal/seqspec"
)

func TestPushBatchEquivalentToLoop(t *testing.T) {
	cfg := Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1}
	sBatch := MustNew[uint64](cfg)
	vs := make([]uint64, 100)
	for i := range vs {
		vs[i] = uint64(i + 1)
	}
	hb := sBatch.NewHandle()
	hb.PushBatch(vs)
	if got := sBatch.Len(); got != len(vs) {
		t.Fatalf("Len = %d after PushBatch, want %d", got, len(vs))
	}
	// Conservation and bound: drain and check the trace.
	var ops []seqspec.Op
	for _, v := range vs {
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: v})
	}
	for {
		v, ok := hb.Pop()
		ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
		if !ok {
			break
		}
	}
	if _, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops)); err != nil {
		t.Fatalf("batched pushes broke the k bound: %v", err)
	}
}

func TestPushBatchRespectsWindowCeiling(t *testing.T) {
	cfg := Config{Width: 2, Depth: 4, Shift: 4, RandomHops: 0}
	s := MustNew[int](cfg)
	h := s.NewHandle()
	h.PushBatch(make([]int, 100))
	g := s.Global()
	for i, c := range s.SubCounts() {
		if c > g {
			t.Fatalf("sub-stack %d count %d exceeds Global %d after batch", i, c, g)
		}
	}
}

func TestPopBatchTopFirst(t *testing.T) {
	cfg := Config{Width: 1, Depth: 64, Shift: 64} // strict: exact order observable
	s := MustNew[int](cfg)
	h := s.NewHandle()
	for i := 1; i <= 10; i++ {
		h.Push(i)
	}
	got := h.PopBatch(3)
	want := []int{10, 9, 8}
	if len(got) != 3 {
		t.Fatalf("PopBatch(3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PopBatch = %v, want %v", got, want)
		}
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d after batch pop, want 7", s.Len())
	}
}

func TestPopBatchShortOnEmpty(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 2, Shift: 2})
	h := s.NewHandle()
	h.Push(1)
	h.Push(2)
	got := h.PopBatch(10)
	if len(got) != 2 {
		t.Fatalf("PopBatch(10) returned %d items, want 2", len(got))
	}
	if more := h.PopBatch(5); len(more) != 0 {
		t.Fatalf("PopBatch on empty returned %v", more)
	}
	if h.PopBatch(0) != nil {
		t.Fatal("PopBatch(0) should return nil")
	}
	if h.PopBatch(-1) != nil {
		t.Fatal("PopBatch(-1) should return nil")
	}
}

func TestBatchRoundTripConservation(t *testing.T) {
	s := MustNew[uint64](Config{Width: 5, Depth: 7, Shift: 3, RandomHops: 2})
	h := s.NewHandle()
	const n = 5000
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = uint64(i)
	}
	h.PushBatch(vs)
	seen := make(map[uint64]bool, n)
	for {
		batch := h.PopBatch(37)
		if len(batch) == 0 {
			break
		}
		for _, v := range batch {
			if seen[v] {
				t.Fatalf("value %d recovered twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("recovered %d values, want %d", len(seen), n)
	}
}

func TestBatchConcurrentConservation(t *testing.T) {
	const workers = 8
	s := MustNew[uint64](DefaultConfig(workers))
	var wg sync.WaitGroup
	recovered := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			base := uint64(w) << 32
			for round := 0; round < 200; round++ {
				vs := make([]uint64, 13)
				for i := range vs {
					vs[i] = base | uint64(round*13+i)
				}
				h.PushBatch(vs)
				recovered[w] = append(recovered[w], h.PopBatch(11)...)
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range recovered {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
		seen[v]++
	}
	want := workers * 200 * 13
	if len(seen) != want {
		t.Fatalf("recovered %d distinct values, want %d", len(seen), want)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
}

// Property: batch and singleton interleavings conserve values and respect
// the bound sequentially.
func TestPropertyBatchKBound(t *testing.T) {
	f := func(widthRaw, depthRaw uint8, sizes []uint8) bool {
		width := int(widthRaw%5) + 1
		depth := int64(depthRaw%6) + 1
		cfg := Config{Width: width, Depth: depth, Shift: depth, RandomHops: 1}
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		for i, raw := range sizes {
			m := int(raw%7) + 1
			if i%2 == 0 {
				vs := make([]uint64, m)
				for j := range vs {
					vs[j] = next
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
					next++
				}
				h.PushBatch(vs)
			} else {
				for _, v := range h.PopBatch(m) {
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v})
				}
			}
		}
		for {
			v, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			if !ok {
				break
			}
		}
		_, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops))
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyBatchPopCountsOneEmptyPop: on the stack, as on the queue, a
// PopBatch that takes nothing and a BufferedPop whose refill comes back
// empty each count one EmptyPops, so OpStats.Ops() counts batched and
// buffered traffic whole. A short batch that took something is no empty
// pop.
func TestEmptyBatchPopCountsOneEmptyPop(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 2, Shift: 2})
	h := s.NewHandle()
	if got := h.PopBatch(4); len(got) != 0 {
		t.Fatalf("PopBatch on an empty stack returned %v", got)
	}
	if st := h.Stats(); st.EmptyPops != 1 || st.Ops() != 1 {
		t.Fatalf("after one empty PopBatch: EmptyPops %d, Ops %d; want 1, 1", st.EmptyPops, st.Ops())
	}
	h.Push(1)
	if got := h.PopBatch(4); len(got) != 1 {
		t.Fatalf("PopBatch(4) over one item returned %v", got)
	}
	if st := h.Stats(); st.EmptyPops != 1 || st.Pops != 1 {
		t.Fatalf("after a short PopBatch: EmptyPops %d, Pops %d; want 1, 1", st.EmptyPops, st.Pops)
	}
	b := s.NewHandle()
	b.SetOpBuffer(4)
	if v, ok := b.BufferedPop(); ok {
		t.Fatalf("BufferedPop on an empty stack returned %d", v)
	}
	if st := b.Stats(); st.EmptyPops != 1 || st.Ops() != 1 {
		t.Fatalf("after one empty BufferedPop: EmptyPops %d, Ops %d; want 1, 1", st.EmptyPops, st.Ops())
	}
}
