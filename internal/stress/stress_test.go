// Package stress contains cross-cutting scenario tests that exercise every
// stack implementation under workload shapes the unit tests do not: burst
// oscillation (fill/drain cycles), empty-heavy churn, handle churn
// (short-lived goroutines), and standing-population soak. Each scenario
// asserts value conservation — the invariant that survives relaxation.
package stress

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/ksegment"
	"stack2d/internal/multistack"
	"stack2d/internal/relax"
)

// worker is one goroutine's handle on a structure under stress: the
// uncounted handle a benchmark drives (relax.NewUncountedHandle).
type worker = relax.Ops[uint64]

// stressBackends builds one fresh structure of each family, moderately
// sized.
func stressBackends(t *testing.T) []relax.Backend[uint64] {
	const p = 4
	must := func(b relax.Backend[uint64], err error) relax.Backend[uint64] {
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return []relax.Backend[uint64]{
		relax.NewTreiberBackend[uint64](),
		must(relax.NewTwoDBackend[uint64](core.Config{Width: 8, Depth: 8, Shift: 4, RandomHops: 2})),
		must(relax.NewEliminationBackend[uint64](elimination.Config{Slots: 2, Spins: 4})),
		must(relax.NewKSegmentBackend[uint64](ksegment.Config{SegmentSize: 4})),
		must(relax.NewMultiBackend[uint64](multistack.Config{Width: 8, Policy: multistack.Random}, p)),
		must(relax.NewMultiBackend[uint64](multistack.Config{Width: 8, Policy: multistack.RandomC2}, p)),
		must(relax.NewMultiBackend[uint64](multistack.Config{Width: 8, Policy: multistack.RoundRobin}, p)),
	}
}

// checkConserved drives workers with the given per-worker body and then
// verifies the recovered multiset: every worker reports (pushed, popped
// values); the drain must account for the rest exactly once.
func checkConserved(t *testing.T, b relax.Backend[uint64], workers int,
	body func(w worker, id int, report func(pushed uint64, popped []uint64))) {
	t.Helper()
	var mu sync.Mutex
	var totalPushed uint64
	seen := make(map[uint64]int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			body(relax.NewUncountedHandle(b), id, func(pushed uint64, popped []uint64) {
				mu.Lock()
				defer mu.Unlock()
				totalPushed += pushed
				for _, v := range popped {
					seen[v]++
				}
			})
		}(i)
	}
	wg.Wait()
	drainer := relax.NewUncountedHandle(b)
	for {
		v, ok := drainer.Pop()
		if !ok {
			break
		}
		seen[v]++
	}
	if uint64(len(seen)) != totalPushed {
		t.Fatalf("%v: recovered %d distinct values, pushed %d", b.Algorithm(), len(seen), totalPushed)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("%v: value %#x recovered %d times", b.Algorithm(), v, n)
		}
	}
}

// TestBurstOscillation alternates fill bursts with drain bursts — the
// window has to move constantly, segments grow and shrink, elimination
// phases flip between push- and pop-dominated.
func TestBurstOscillation(t *testing.T) {
	for _, b := range stressBackends(t) {
		t.Run(b.Algorithm().String(), func(t *testing.T) {
			checkConserved(t, b, 4, func(w worker, id int, report func(uint64, []uint64)) {
				base := uint64(id+1) << 40
				var pushed uint64
				var popped []uint64
				for cycle := 0; cycle < 30; cycle++ {
					for i := 0; i < 50; i++ {
						pushed++
						w.Push(base | pushed)
					}
					for i := 0; i < 50; i++ {
						if v, ok := w.Pop(); ok {
							popped = append(popped, v)
						}
					}
				}
				report(pushed, popped)
			})
		})
	}
}

// TestEmptyHeavyChurn keeps the structure near empty: pops outnumber
// pushes 3:1, hammering the empty-detection paths (window floor scans,
// segment unlinking, collision timeouts).
func TestEmptyHeavyChurn(t *testing.T) {
	for _, b := range stressBackends(t) {
		t.Run(b.Algorithm().String(), func(t *testing.T) {
			checkConserved(t, b, 4, func(w worker, id int, report func(uint64, []uint64)) {
				base := uint64(id+1) << 40
				var pushed uint64
				var popped []uint64
				for i := 0; i < 2500; i++ {
					if i%4 == 0 {
						pushed++
						w.Push(base | pushed)
					} else if v, ok := w.Pop(); ok {
						popped = append(popped, v)
					}
				}
				report(pushed, popped)
			})
		})
	}
}

// TestHandleChurn spawns many short-lived goroutines, each with a fresh
// handle for a few operations — stressing handle registration (flat
// combining's publication list, anchor initialisation).
func TestHandleChurn(t *testing.T) {
	for _, b := range stressBackends(t) {
		t.Run(b.Algorithm().String(), func(t *testing.T) {
			var label atomic.Uint64
			var mu sync.Mutex
			seen := make(map[uint64]int)
			var wg sync.WaitGroup
			const goroutines = 64
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w := relax.NewUncountedHandle(b)
					var popped []uint64
					for i := 0; i < 40; i++ {
						w.Push(label.Add(1))
						if v, ok := w.Pop(); ok {
							popped = append(popped, v)
						}
					}
					mu.Lock()
					for _, v := range popped {
						seen[v]++
					}
					mu.Unlock()
				}()
			}
			wg.Wait()
			drainer := relax.NewUncountedHandle(b)
			for {
				v, ok := drainer.Pop()
				if !ok {
					break
				}
				mu.Lock()
				seen[v]++
				mu.Unlock()
			}
			want := int(label.Load())
			if len(seen) != want {
				t.Fatalf("recovered %d distinct values, pushed %d", len(seen), want)
			}
			for v, n := range seen {
				if n != 1 {
					t.Fatalf("value %d recovered %d times", v, n)
				}
			}
		})
	}
}

// TestSoakStandingPopulation holds a large standing population under
// balanced churn and verifies the population count afterwards — window
// drift, counter drift or segment leaks would show up as a wrong Len.
func TestSoakStandingPopulation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	for _, b := range stressBackends(t) {
		t.Run(b.Algorithm().String(), func(t *testing.T) {
			pre := relax.NewUncountedHandle(b)
			const standing = 10000
			for i := 1; i <= standing; i++ {
				pre.Push(uint64(i))
			}
			var wg sync.WaitGroup
			var imbalance atomic.Int64 // pushes - pops by the churn phase
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					w := relax.NewUncountedHandle(b)
					base := uint64(g+1) << 40
					n := uint64(0)
					for i := 0; i < 5000; i++ {
						if i%2 == 0 {
							n++
							w.Push(base | n)
							imbalance.Add(1)
						} else if _, ok := w.Pop(); ok {
							imbalance.Add(-1)
						}
					}
				}(g)
			}
			wg.Wait()
			want := standing + int(imbalance.Load())
			if got := b.Len(); got != want {
				t.Fatalf("population = %d after soak, want %d", got, want)
			}
		})
	}
}

// TestFigureFactoriesUnderStress runs the burst scenario against the exact
// structures Figure 2 builds (relax.NewDefaultBackend), catching
// configuration-specific issues.
func TestFigureFactoriesUnderStress(t *testing.T) {
	for _, alg := range relax.Figure2Algorithms() {
		t.Run(fmt.Sprintf("fig2-%s", alg), func(t *testing.T) {
			b, err := relax.NewDefaultBackend[uint64](alg, 4)
			if err != nil {
				t.Fatal(err)
			}
			checkConserved(t, b, 4, func(w worker, id int, report func(uint64, []uint64)) {
				base := uint64(id+1) << 40
				var pushed uint64
				var popped []uint64
				for cycle := 0; cycle < 10; cycle++ {
					for i := 0; i < 40; i++ {
						pushed++
						w.Push(base | pushed)
					}
					for i := 0; i < 40; i++ {
						if v, ok := w.Pop(); ok {
							popped = append(popped, v)
						}
					}
				}
				report(pushed, popped)
			})
		})
	}
}
