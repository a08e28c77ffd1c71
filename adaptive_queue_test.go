package stack2d_test

import (
	"sync"
	"testing"
	"time"

	"stack2d"
)

func TestAdaptiveQueueBasic(t *testing.T) {
	q := stack2d.NewAdaptiveQueue[uint64](
		stack2d.WithWidth(2),
		stack2d.WithDepth(8),
		stack2d.WithAdaptive(stack2d.AdaptivePolicy{
			Goal:     stack2d.GoalMaxThroughput,
			KCeiling: 4096,
			Tick:     2 * time.Millisecond,
		}),
	)
	defer q.Close()

	const workers, perW = 4, 4000
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
	q.Close()

	// Conservation across whatever retuning the controller performed.
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

	// Every controller decision must have respected the ceiling, and the
	// sampled signals must reflect the handles' work.
	hist := q.Controller().History()
	for _, rec := range hist {
		if rec.K > 4096 {
			t.Fatalf("tick %d ran with k=%d above the ceiling", rec.Tick, rec.K)
		}
	}
	if snap := q.StatsSnapshot(); snap.Ops() == 0 {
		t.Fatal("StatsSnapshot reported zero operations")
	}
}

func TestAdaptiveQueueManualReconfigure(t *testing.T) {
	q := stack2d.NewAdaptiveQueue[int](stack2d.WithWidth(2), stack2d.WithDepth(8))
	q.Close() // stop the controller so the manual geometry sticks
	want := stack2d.Config{Width: 4, Depth: 32, Shift: 32, RandomHops: 1}
	if err := q.Reconfigure(want); err != nil {
		t.Fatal(err)
	}
	if got := q.Config(); got != want {
		t.Fatalf("Config = %+v, want %+v", got, want)
	}
	h := q.NewHandle()
	h.Enqueue(7)
	if v, ok := h.Dequeue(); !ok || v != 7 {
		t.Fatalf("Dequeue = (%d,%v) after manual reconfigure", v, ok)
	}
}

func TestNewAdaptiveQueueWithConfigRejectsInvalid(t *testing.T) {
	if _, err := stack2d.NewAdaptiveQueueWithConfig[int](stack2d.Config{}, stack2d.DefaultAdaptivePolicy()); err == nil {
		t.Fatal("zero config accepted")
	}
	bad := stack2d.DefaultAdaptivePolicy()
	bad.MinWidth = 8
	bad.MaxWidth = 2
	if _, err := stack2d.NewAdaptiveQueueWithConfig[int](stack2d.Config{Width: 2, Depth: 8, Shift: 8}, bad); err == nil {
		t.Fatal("incoherent policy accepted")
	}
}
