package engine

import (
	"runtime"
	"sync/atomic"
	"testing"

	"stack2d/internal/relax"
	"stack2d/internal/xrand"
)

// BenchmarkHeldBackend measures a switcher that never swaps, held on each
// backend stack2d.NewEngine registers: the paper's 50/50 push/pop mix
// with no think time over a 32 768-item prefill, one goroutine per
// GOMAXPROCS processor, every operation pinning and unpinning its
// handle's stripe. Against the same backend without the switcher this is
// the engine rung's cost, and at -cpu 2 and above it shows whether the
// pin is a line the workers share:
//
//	go test -run '^$' -bench HeldBackend -cpu 2 ./internal/engine/
func BenchmarkHeldBackend(b *testing.B) {
	for _, a := range []relax.Algorithm{relax.TwoDStack, relax.EliminationStack, relax.TreiberStack} {
		b.Run(a.String(), func(b *testing.B) {
			backend, err := relax.NewDefaultBackend[uint64](a, runtime.GOMAXPROCS(0))
			if err != nil {
				b.Fatal(err)
			}
			sw, err := New(backend)
			if err != nil {
				b.Fatal(err)
			}
			pre := sw.NewHandle()
			for i := uint64(1); i <= 32768; i++ {
				pre.Push(i)
			}
			pre.Flush()
			var workers atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				h := sw.NewHandle()
				id := workers.Add(1)
				rng := xrand.New(id)
				label := id << 40
				for pb.Next() {
					if rng.Bool() {
						label++
						h.Push(label)
					} else {
						h.Pop()
					}
				}
				h.Flush()
			})
		})
	}
}
