package relax

import (
	"bytes"
	"testing"

	"stack2d/internal/seqspec"
)

// maxFuzzScript caps a fuzzed script at 250 bytes, 2 000 operations: the
// distance checks are quadratic in the history's length.
const maxFuzzScript = 250

// FuzzBackendCatalogue drives one handle of a catalogue backend
// (NewDefaultBackend at a fuzzed algorithm and P) through a fuzzed op
// script, one bit per operation (1 = push), drains it through the same
// handle, and judges the history by what the catalogue promises, checked
// over sequential intervals at KBound: k-out-of-order LIFO for the stacks
// (strict where KBound is 0), k-out-of-order FIFO for the queues (strict
// for Michael–Scott, the 2D-Queue's bound for the 2D-Queue), and
// conservation only for the unordered pools and k-robin, whose KRobinBound
// is an estimate that single-threaded scripts exceed. A batch cap of 0
// pushes item by item; a cap c >= 1 sends each run of up to c consecutive
// pushes through one PushBatch, which must mean what the loop of Push it
// replaces means. Every run must also conserve items — each pushed item
// popped exactly once, none left behind — and, after Flush, StatsSnapshot
// must count every push, batched or not, and every pop.
// Explore with
// `go test -run '^$' -fuzz FuzzBackendCatalogue -fuzzminimizetime 1s ./internal/relax/`.
func FuzzBackendCatalogue(f *testing.F) {
	for _, a := range AllAlgorithms() {
		f.Add(uint8(a), uint8(0), uint8(0), []byte{0xff, 0x0f, 0xf0, 0xaa, 0x55})
		f.Add(uint8(a), uint8(3), uint8(0), []byte{0xff, 0xff, 0xff, 0x3f, 0x00, 0xb7})
	}
	// Batching seeds: single-item batches, short runs cut by the cap, and
	// a run of 320 pushes at P = 1 that the cap splits into 255 and 65,
	// more than the 2D structures' first window holds (width 4, depth 64).
	long := append(bytes.Repeat([]byte{0xff}, 40), 0x00, 0x00, 0xf0, 0x3c)
	for _, a := range AllAlgorithms() {
		f.Add(uint8(a), uint8(1), uint8(1), []byte{0xff, 0x0f, 0xf0, 0xaa, 0x55})
		f.Add(uint8(a), uint8(1), uint8(5), []byte{0xff, 0xff, 0x0f, 0xf0, 0xee, 0x77, 0x00})
		f.Add(uint8(a), uint8(0), uint8(255), long)
	}
	f.Fuzz(func(t *testing.T, algRaw, pRaw, batchCap uint8, script []byte) {
		all := AllAlgorithms()
		a, p := all[int(algRaw)%len(all)], int(pRaw%8)+1
		if len(script) > maxFuzzScript {
			script = script[:maxFuzzScript]
		}
		b, err := NewDefaultBackend[uint64](a, p)
		if err != nil {
			t.Fatal(err)
		}
		h := b.NewHandle()
		var ops []seqspec.Op
		var run []uint64
		next := uint64(1)
		pushRun := func() {
			if len(run) > 0 {
				h.PushBatch(run)
				run = run[:0]
			}
		}
		pop := func() bool {
			pushRun()
			v, ok := h.Pop()
			ops = append(ops, seqspec.Op{Kind: seqspec.OpPop, Value: v, Empty: !ok})
			return ok
		}
		for _, c := range script {
			for bit := 0; bit < 8; bit++ {
				if c&(1<<bit) == 0 {
					pop()
					continue
				}
				ops = append(ops, seqspec.Op{Kind: seqspec.OpPush, Value: next})
				if batchCap == 0 {
					h.Push(next)
				} else if run = append(run, next); len(run) == int(batchCap) {
					pushRun()
				}
				next++
			}
		}
		for pop() {
		}
		hist := seqspec.SequentialIntervals(ops)
		rep, err := (seqspec.KStackChecker{K: int64(len(ops))}).Check(hist)
		if err != nil {
			t.Fatalf("%v, P=%d: %v", a, p, err)
		}
		pushed := int(next - 1)
		if rep.Pops != pushed || b.Len() != 0 {
			t.Fatalf("%v, P=%d: %d of %d pushed items popped, Len %d after the drain", a, p, rep.Pops, pushed, b.Len())
		}
		h.Flush()
		if st := b.StatsSnapshot(); st.Pushes != uint64(pushed) || st.Pops != uint64(pushed) {
			t.Fatalf("%v, P=%d, cap %d: StatsSnapshot counts %d pushes and %d pops, want %d of each", a, p, batchCap, st.Pushes, st.Pops, pushed)
		}
		k := b.KBound()
		switch {
		case a.Ordering() == OrderNone || a == KRobin:
			// Conservation, checked above, is the whole promise.
		case a.Ordering() == OrderFIFO:
			_, err = (seqspec.KFIFOChecker{K: k}).Check(hist)
		default:
			_, err = (seqspec.KStackChecker{K: k}).Check(hist)
		}
		if err != nil {
			t.Fatalf("%v, P=%d, k=%d: %v", a, p, k, err)
		}
	})
}
