package core

import (
	"fmt"
	"testing"
	"unsafe"

	"stack2d/internal/pad"
	"stack2d/internal/xrand"
)

// TestBelowChainSequentialLIFO drives every op path through one width-1
// stack with no random hops, so the order is strict LIFO, and checks the
// exact output against a slice model, Len and CheckInvariants (which walks
// the below chain) after every operation. Batches of 5 are published and
// popped with spans from 1 to 10 — smaller than, equal to and larger than
// a batch — so pops re-install the state under a batch, copy a top out of
// its middle, and cross several batches at once. Stretches of 400
// operations alternate a 65% and a 15% share of pushes, so the stack
// climbs hundreds of items deep and drains to empty. At depth 3 the
// window also splits every batch into groups and every pop batch into
// steps.
func TestBelowChainSequentialLIFO(t *testing.T) {
	const batch = 5
	for _, cfg := range []Config{
		{Width: 1, Depth: 64, Shift: 64, RandomHops: 0},
		{Width: 1, Depth: 3, Shift: 2, RandomHops: 0},
	} {
		t.Run(fmt.Sprintf("d%ds%d", cfg.Depth, cfg.Shift), func(t *testing.T) {
			s := MustNew[int](cfg)
			h := s.NewHandle()
			rng := xrand.New(3)
			var model []int
			next := 0
			popped := func(op string, v int, ok bool) {
				t.Helper()
				if len(model) == 0 {
					if ok {
						t.Fatalf("%s returned %d from an empty stack", op, v)
					}
					return
				}
				want := model[len(model)-1]
				if !ok || v != want {
					t.Fatalf("%s = (%d, %v), want (%d, true)", op, v, ok, want)
				}
				model = model[:len(model)-1]
			}
			vs := make([]int, batch)
			for i := 0; i < 3200; i++ {
				pushPct := 65 - 50*(i/400%2)
				var op string
				switch r := rng.Intn(100); {
				case r < pushPct/2:
					op = "Push"
					h.Push(next)
					model = append(model, next)
					next++
				case r < pushPct:
					op = "PushBatch"
					for j := range vs {
						vs[j] = next
						next++
					}
					h.PushBatch(vs)
					model = append(model, vs...)
				case r < pushPct+(100-pushPct)/3:
					op = "Pop"
					v, ok := h.Pop()
					popped(op, v, ok)
				case r < pushPct+2*(100-pushPct)/3:
					// TryPop may miss a non-empty stack whose items all sit
					// at or below the window floor; a hit must be the top.
					op = "TryPop"
					if v, ok := h.TryPop(); ok || len(model) == 0 {
						popped(op, v, ok)
					}
				default:
					span := 1 + rng.Intn(2*batch)
					op = fmt.Sprintf("PopBatch(%d)", span)
					got := h.PopBatch(span)
					if want := min(span, len(model)); len(got) != want {
						t.Fatalf("op %d: %s returned %d values, want %d", i, op, len(got), want)
					}
					for _, v := range got {
						popped(op, v, true)
					}
				}
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("op %d (%s): %v", i, op, err)
				}
				if got := s.Len(); got != len(model) {
					t.Fatalf("op %d (%s): Len = %d, want %d", i, op, got, len(model))
				}
			}
		})
	}
}

// TestShrinkSpliceOrder pins the order a width shrink's splice leaves
// behind: 1..6 on slot 1 (the top four published as one batch) and
// 101..103 on slot 0, then SetWidth(1) splices slot 1's chain onto slot 0,
// so single pops return exactly 6..1 and then 103..101, with the below
// chains consistent after each.
func TestShrinkSpliceOrder(t *testing.T) {
	s := MustNew[int](Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 0})
	h := s.NewHandle()
	h.SetAnchor(1)
	h.Push(1)
	h.Push(2)
	h.PushBatch([]int{3, 4, 5, 6})
	h.SetAnchor(0)
	for v := 101; v <= 103; v++ {
		h.Push(v)
	}
	if got := s.SubCounts(); got[0] != 3 || got[1] != 6 {
		t.Fatalf("SubCounts = %v, want [3 6]", got)
	}
	if err := s.SetWidth(1); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("after the splice: %v", err)
	}
	for _, want := range []int{6, 5, 4, 3, 2, 1, 103, 102, 101} {
		if v, ok := h.Pop(); !ok || v != want {
			t.Fatalf("Pop = (%d, %v), want (%d, true)", v, ok, want)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("after popping %d: %v", want, err)
		}
	}
	if v, ok := h.Pop(); ok {
		t.Fatalf("Pop = %d from a drained stack", v)
	}
}

// TestCheckInvariantsCatchesCorruptBelow corrupts one below pointer of a
// quiescent stack in two ways — a copy of the right state that is not the
// node at its depth, and an entry that does not hold fewer items than the
// one above it — and expects CheckInvariants to report each.
func TestCheckInvariantsCatchesCorruptBelow(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(d *descriptor[int])
	}{
		{"copy", func(d *descriptor[int]) { b := *d.below; d.below = &b }},
		{"count", func(d *descriptor[int]) { d.below = d }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := MustNew[int](Config{Width: 1, Depth: 8, Shift: 8, RandomHops: 0})
			h := s.NewHandle()
			for v := 0; v < 4; v++ {
				h.Push(v)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("before corruption: %v", err)
			}
			c.corrupt(s.Geometry().Subs[0].load())
			if err := s.CheckInvariants(); err == nil {
				t.Fatal("CheckInvariants accepted a corrupt below chain")
			}
		})
	}
}

// TestSubStackFillsOneLine pins the slot layout: the descriptor pointer
// and the join base share one cache line and nothing else does, so a CAS
// on one sub-stack never invalidates a neighbour's line.
func TestSubStackFillsOneLine(t *testing.T) {
	if got := unsafe.Sizeof(subStack[uint64]{}); got != pad.CacheLineSize {
		t.Fatalf("subStack is %d bytes, want %d", got, pad.CacheLineSize)
	}
}
