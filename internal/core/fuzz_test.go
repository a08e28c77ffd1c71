package core

import (
	"testing"

	"stack2d/internal/seqspec"
)

// FuzzSequentialKOutOfOrder feeds arbitrary op scripts and configurations
// to a 2D-Stack and checks the resulting history against Theorem 1's exact
// (corrected) bound through KStackChecker over synthesized non-overlapping
// intervals, which leave no measurement slack. Each script runs twice,
// each time on a fresh stack: through Push and Pop, then through
// single-item PushBatch and PopBatch, whose batch paths must keep the same
// bound. Run the seed corpus with `go test` (testdata/fuzz holds the
// checked-in cases, including the width-2/depth-4/shift-1 history that
// refuted the paper's transcribed constant); explore with
// `go test -fuzz=FuzzSequentialKOutOfOrder ./internal/core`.
func FuzzSequentialKOutOfOrder(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(1), uint8(1), []byte{0xff, 0x0f, 0xf0})
	f.Add(uint8(1), uint8(1), uint8(1), uint8(0), []byte{0x00})
	f.Add(uint8(6), uint8(2), uint8(2), uint8(2), []byte{0xaa, 0x55, 0xaa, 0x55})
	f.Add(uint8(4), uint8(8), uint8(4), uint8(3), []byte{})
	// The Theorem-1 counterexample geometry and script (14 pushes, then
	// drain): realises distance 7 > 6 = the retired constant, within the
	// corrected K() = 9. Kept as a live seed so a regression of the
	// constant fails the corpus run, not just the fuzzer.
	f.Add(uint8(1), uint8(3), uint8(0), uint8(0), []byte{0xff, 0x3f})
	f.Fuzz(func(t *testing.T, widthRaw, depthRaw, shiftRaw, hopsRaw uint8, script []byte) {
		width := int(widthRaw%8) + 1
		depth := int64(depthRaw%8) + 1
		shift := int64(shiftRaw)%depth + 1
		hops := int(hopsRaw % 4)
		cfg := Config{Width: width, Depth: depth, Shift: shift, RandomHops: hops}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v", err)
		}
		for _, batched := range []bool{false, true} {
			s := MustNew[uint64](cfg)
			h := s.NewHandle()
			push, pop := h.Push, h.Pop
			if batched {
				push = func(v uint64) { h.PushBatch([]uint64{v}) }
				pop = func() (uint64, bool) {
					if out := h.PopBatch(1); len(out) == 1 {
						return out[0], true
					}
					return 0, false
				}
			}
			var ops []seqspec.Op
			next := uint64(1)
			for _, b := range script {
				for bit := 0; bit < 8; bit++ {
					if b&(1<<bit) != 0 {
						push(next)
						ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
						next++
					} else {
						v, ok := pop()
						ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
					}
				}
			}
			for {
				v, ok := pop()
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
				if !ok {
					break
				}
			}
			if _, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops)); err != nil {
				t.Fatalf("cfg %+v, batched %v: %v", cfg, batched, err)
			}
			if !s.Empty() {
				t.Fatalf("cfg %+v, batched %v: stack not empty after full drain", cfg, batched)
			}
		}
	})
}
