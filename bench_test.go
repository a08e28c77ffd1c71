// Benchmarks regenerating every figure of the paper's evaluation section
// (the brief announcement has two figures and no tables) plus the ablation
// studies listed in EXPERIMENTS.md.
//
// Figure 1 — throughput vs relaxation bound k (k-bounded algorithms) at a
// fixed thread count:   go test -bench=Figure1 -benchmem
// Figure 2 — throughput vs concurrency (all algorithms):
//
//	go test -bench=Figure2 -benchmem
//
// Ablations A1–A5:      go test -bench=Ablation -benchmem
//
// The Figure and Ablation benchmarks take their axes and case tables from
// internal/harness, the ones cmd/stackbench sweeps; they add -benchmem
// columns and benchstat-ready output to its throughput and quality tables.
//
// Each benchmark prefills the stack with the paper's 32,768 items outside
// the timed region and then drives a 50/50 push/pop mix with no think time.
// The quality (error distance) companion numbers come from the sweep
// harness: cmd/stackbench prints both series; see EXPERIMENTS.md.
package stack2d_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/eltree"
	"stack2d/internal/harness"
	"stack2d/internal/relax"
	"stack2d/internal/twodqueue"
	"stack2d/internal/xrand"
	"stack2d/internal/yield"
)

const benchPrefill = 32768

// driveFactory runs the canonical paper workload (uniform 50/50 push/pop)
// against one factory under b.RunParallel with `par` goroutines per
// GOMAXPROCS processor.
func driveFactory(b *testing.B, f harness.Factory, par int, pushRatio float64) {
	b.Helper()
	inst := f.New()
	pre := inst.NewWorker()
	for i := 0; i < benchPrefill; i++ {
		pre.Push(uint64(i) + 1)
	}
	var workerID atomic.Uint64
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := inst.NewWorker()
		id := workerID.Add(1)
		rng := xrand.New(0x2d57ac + id*0x9e3779b97f4a7c15)
		label := id << 40
		for pb.Next() {
			if rng.Float64() < pushRatio {
				label++
				w.Push(label)
			} else {
				w.Pop()
			}
		}
	})
}

// BenchmarkFigure1 regenerates the relaxation sweep: the three k-bounded
// algorithms over the harness's k axis (harness.Figure1Ks), at the paper's
// two highlighted thread counts (P=8 intra-socket, P=16 inter-socket).
func BenchmarkFigure1(b *testing.B) {
	for _, p := range []int{8, 16} {
		for _, k := range harness.Figure1Ks() {
			for _, alg := range relax.Figure1Algorithms() {
				f := harness.Figure1Factory(alg, k, p)
				b.Run(fmt.Sprintf("P=%d/k=%d/%s", p, k, f.Name), func(b *testing.B) {
					driveFactory(b, f, p, 0.5)
				})
			}
		}
	}
}

// BenchmarkFigure2 regenerates the concurrency sweep: all seven algorithms
// over the paper's thread axis (harness.Figure2Ps, 1..16).
func BenchmarkFigure2(b *testing.B) {
	for _, p := range harness.Figure2Ps() {
		for _, alg := range relax.Figure2Algorithms() {
			f := harness.Figure2Factory(alg, p)
			b.Run(fmt.Sprintf("P=%d/%s", p, f.Name), func(b *testing.B) {
				driveFactory(b, f, p, 0.5)
			})
		}
	}
}

// BenchmarkAblation runs the ablations A1–A5 (harness.AblationNames says
// what each isolates) at P=8 over the case tables stackbench -ablation
// prints (harness.AblationCases).
func BenchmarkAblation(b *testing.B) {
	const p = 8
	for _, name := range harness.AblationNames() {
		cases, err := harness.AblationCases(name, p)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cases {
			b.Run(name+"/"+c.Label, func(b *testing.B) {
				driveFactory(b, c.Factory, p, c.PushRatio)
			})
		}
	}
}

// BenchmarkPublicAPI measures the overhead of the exported convenience
// layer (pooled handles) against raw handles.
func BenchmarkPublicAPI(b *testing.B) {
	b.Run("handle", func(b *testing.B) {
		f := harness.NewTwoDFactory(core.DefaultConfig(8))
		driveFactory(b, f, 8, 0.5)
	})
}

// BenchmarkExtensionQueue measures the 2D-Queue generalisation (the
// paper's announced future work) against its strict Michael–Scott
// baseline, mirroring the Figure 2 methodology.
func BenchmarkExtensionQueue(b *testing.B) {
	for _, p := range []int{1, 4, 8, 16} {
		for _, f := range []harness.Factory{
			harness.NewMSQueueFactory(),
			harness.NewTwoDQueueFactory(twodqueue.DefaultConfig(p)),
		} {
			b.Run(fmt.Sprintf("P=%d/%s", p, f.Name), func(b *testing.B) {
				driveFactory(b, f, p, 0.5)
			})
		}
	}
}

// BenchmarkExtensionThinkTime dilutes contention with computational load
// between operations (the paper zeroes this to maximise contention; the
// full version sweeps it). As think time grows, the gap between designs
// narrows — the crossover the sweep exposes.
func BenchmarkExtensionThinkTime(b *testing.B) {
	const p = 8
	for _, spin := range []int{0, 64, 512} {
		for _, f := range []harness.Factory{
			harness.NewTreiberFactory(),
			harness.NewTwoDFactory(core.DefaultConfig(p)),
		} {
			spin := spin
			b.Run(fmt.Sprintf("think=%d/%s", spin, f.Name), func(b *testing.B) {
				driveThinking(b, f, p, spin)
			})
		}
	}
}

// driveThinking is driveFactory with a spin workload between operations.
func driveThinking(b *testing.B, f harness.Factory, par, spin int) {
	b.Helper()
	inst := f.New()
	pre := inst.NewWorker()
	for i := 0; i < benchPrefill; i++ {
		pre.Push(uint64(i) + 1)
	}
	var workerID atomic.Uint64
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := inst.NewWorker()
		id := workerID.Add(1)
		rng := xrand.New(0x7e11 + id*0x9e3779b97f4a7c15)
		label := id << 40
		var sink uint64
		for pb.Next() {
			if rng.Bool() {
				label++
				w.Push(label)
			} else {
				w.Pop()
			}
			for i := 0; i < spin; i++ {
				sink = sink*6364136223846793005 + 1442695040888963407
			}
		}
		_ = sink
	})
}

// BenchmarkRelatedWork places the 2D-Stack in the wider contention-
// management design space the paper's Section 2 surveys: software
// combining (flat combining) and elimination-diffraction trees, alongside
// the strict and relaxed designs of the evaluation proper.
func BenchmarkRelatedWork(b *testing.B) {
	for _, p := range []int{1, 8, 16} {
		factories := []harness.Factory{
			harness.NewTwoDFactory(core.DefaultConfig(p)),
			harness.NewTreiberFactory(),
			harness.NewEliminationFactory(elimination.DefaultConfig(p)),
			harness.NewFlatCombiningFactory(),
			harness.NewElimTreeFactory(eltree.DefaultConfig(p)),
		}
		for _, f := range factories {
			b.Run(fmt.Sprintf("P=%d/%s", p, f.Name), func(b *testing.B) {
				driveFactory(b, f, p, 0.5)
			})
		}
	}
}

// BenchmarkBatchOps measures the batched API against singleton operations
// at matched item volume (batch size 16).
func BenchmarkBatchOps(b *testing.B) {
	const p = 8
	const batch = 16
	b.Run("singleton", func(b *testing.B) {
		f := harness.NewTwoDFactory(core.DefaultConfig(p))
		driveFactory(b, f, p, 0.5)
	})
	b.Run("batch16", func(b *testing.B) {
		inst := core.MustNew[uint64](core.DefaultConfig(p))
		pre := inst.NewHandle()
		for i := 0; i < benchPrefill; i++ {
			pre.Push(uint64(i) + 1)
		}
		var workerID atomic.Uint64
		b.SetParallelism(p)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			h := inst.NewHandle()
			id := workerID.Add(1)
			rng := xrand.New(0xba7c4 + id*0x9e3779b97f4a7c15)
			label := id << 40
			buf := make([]uint64, batch)
			for pb.Next() {
				// One pb.Next() tick = one batch of 16 item-ops, so ns/op
				// numbers are per batch; divide by 16 to compare with the
				// singleton series.
				if rng.Bool() {
					for i := range buf {
						label++
						buf[i] = label
					}
					h.PushBatch(buf)
				} else {
					h.PopBatch(batch)
				}
			}
		})
	})
}

// BenchmarkDirectorGate pins the director hooks' disabled-state overhead
// (DESIGN.md §10). "nil" is the shipped configuration; "armed-noop"
// installs an empty hook so every gate call site executes its call. The two
// series must stay within noise of each other and of the pre-hook seed, and
// both must stay allocation-free: the gate is a package-level function
// pointer checked off the fast path, so arming it may add at most the cost
// of an indirect call on paths that are already slow (failed CAS, window
// move). Two workloads make the sites actually execute: "window" churns the
// window with a depth-1 geometry (every other op crosses a window-move
// gate) and "contended" runs the canonical parallel storm (CAS-failure
// gates).
func BenchmarkDirectorGate(b *testing.B) {
	window := func(b *testing.B) {
		s := core.MustNew[uint64](core.Config{Width: 1, Depth: 1, Shift: 1, RandomHops: 0})
		h := s.NewHandle()
		b.ReportAllocs()
		b.ResetTimer()
		var label uint64
		for i := 0; i < b.N; i++ {
			label++
			h.Push(label)
			h.Pop()
		}
	}
	contended := func(b *testing.B) {
		b.ReportAllocs()
		driveFactory(b, harness.NewTwoDFactory(core.DefaultConfig(8)), 8, 0.5)
	}
	for _, w := range []struct {
		name string
		run  func(*testing.B)
	}{{"window", window}, {"contended", contended}} {
		b.Run(w.name+"/gate-nil", w.run)
		b.Run(w.name+"/gate-armed-noop", func(b *testing.B) {
			yield.Gate = func(yield.Point) {}
			defer func() { yield.Gate = nil }()
			w.run(b)
		})
	}
}
