package ksegment

import (
	"testing"

	"stack2d/internal/seqspec"
)

// FuzzSequentialKBound feeds arbitrary scripts and segment sizes to a
// k-segment stack and checks conservation plus the s−1 sequential bound
// through KStackChecker over synthesized sequential intervals, which leave
// no measurement slack. testdata/fuzz holds the checked-in seed corpus.
func FuzzSequentialKBound(f *testing.F) {
	f.Add(uint8(1), []byte{0xff, 0x00})
	f.Add(uint8(4), []byte{0xaa, 0x55})
	f.Add(uint8(16), []byte{0xf0, 0x0f, 0xcc})
	f.Fuzz(func(t *testing.T, sizeRaw uint8, script []byte) {
		size := int(sizeRaw%16) + 1
		cfg := Config{SegmentSize: size}
		s := MustNew[uint64](cfg)
		h := s.NewHandle()
		var ops []seqspec.Op
		next := uint64(1)
		for _, b := range script {
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					h.Push(next)
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
					next++
				} else {
					v, ok := h.Pop()
					ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
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
		if _, err := (seqspec.KStackChecker{K: cfg.K()}).Check(seqspec.SequentialIntervals(ops)); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	})
}
