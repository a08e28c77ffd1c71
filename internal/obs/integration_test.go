package obs

import (
	"runtime"
	"testing"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/harness"
	"stack2d/internal/twodqueue"
)

// TestEventCausalOrder drives a real phased workload over an instrumented
// adaptive stack and asserts the trace reads causally: every warm shrink
// handoff is preceded (in ring sequence) by the reconfiguration that
// stranded its slots, at the same epoch, and the controller tick that
// reported a decision follows any structural events that decision caused.
func TestEventCausalOrder(t *testing.T) {
	ring := NewRing(512)
	s := core.MustNew[uint64](core.Config{Width: 8, Depth: 16, Shift: 16, RandomHops: 2})
	s.SetObserver(StructTracer{Structure: "stack", Ring: ring})

	ctrl, err := adapt.New(s, adapt.Policy{Tick: 5 * time.Millisecond, MinOpsPerTick: 64})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.SetObserver(TickTracer{Structure: "stack", Ring: ring})

	// A contention-phased harness run with the background controller live —
	// the same arrangement cmd/adapttune's demo uses. Whether the controller
	// reconfigures during it is workload- and machine-dependent; the causal
	// assertions below hold either way.
	ctrl.Start()
	_, err = harness.RunPhased(s, harness.ContentionPhases(4, 50*time.Millisecond),
		harness.PhasedWorkload{MaxWorkers: 4, Prefill: 1024, Seed: 42})
	ctrl.Stop()
	if err != nil {
		t.Fatal(err)
	}

	// Now force the full structural vocabulary deterministically: populate,
	// shrink (reconfig + handoff), and take one more controller step so a
	// tick provably follows the structural pair it reported.
	h := s.NewHandle()
	for i := uint64(0); i < 512; i++ {
		h.Push(i)
	}
	preShrink := ring.Emitted()
	if err := s.SetWidth(2); err != nil {
		t.Fatal(err)
	}
	ctrl.Step(50 * time.Millisecond)

	events := ring.Snapshot()
	if len(events) == 0 {
		t.Fatal("instrumented run emitted no events")
	}
	var ticks, reconfigs, handoffs int
	reconfigBySeq := map[uint64]Event{}
	for i, ev := range events {
		if i > 0 && ev.Seq <= events[i-1].Seq {
			t.Fatalf("snapshot not strictly Seq-ordered at %d", i)
		}
		switch ev.Kind {
		case KindTick:
			ticks++
		case KindReconfig:
			reconfigs++
			reconfigBySeq[ev.Seq] = ev
		case KindShrinkHandoff:
			handoffs++
			// Causality: the publishing reconfig precedes its handoff, at
			// the same epoch and geometry.
			found := false
			for seq, rc := range reconfigBySeq {
				if seq < ev.Seq && rc.Epoch == ev.Epoch && rc.Width == ev.Width {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("shrink-handoff seq=%d epoch=%d has no preceding reconfig event", ev.Seq, ev.Epoch)
			}
			if ev.Displacement <= 0 {
				t.Fatalf("handoff of a populated shrink carried displacement %d", ev.Displacement)
			}
		}
	}
	if ticks == 0 {
		t.Fatal("no controller tick events recorded")
	}
	if handoffs == 0 {
		t.Fatal("forced width shrink emitted no shrink-handoff event")
	}

	// The tick stepped after the forced shrink must order after both the
	// shrink's events; it is the last event emitted.
	last := events[len(events)-1]
	if last.Kind != KindTick {
		t.Fatalf("last event is %v, want the post-shrink tick", last.Kind)
	}
	if last.Seq < preShrink {
		t.Fatal("post-shrink tick ordered before the shrink's structural events")
	}
	if last.Goal != adapt.MaxThroughput.String() {
		t.Fatalf("tick goal = %q, want %q", last.Goal, adapt.MaxThroughput)
	}
	if last.Width != 2 {
		t.Fatalf("post-shrink tick reports width %d, want 2", last.Width)
	}
	if s.ShrinkDisplacementBound() <= 0 {
		t.Fatal("shrink left no displacement bound")
	}
}

// TestQueueStructEvents mirrors the structural assertions for the 2D-Queue,
// which reuses core's observer vocabulary through its own hook points.
func TestQueueStructEvents(t *testing.T) {
	ring := NewRing(64)
	q := twodqueue.MustNew[uint64](twodqueue.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 1})
	q.SetObserver(StructTracer{Structure: "queue", Ring: ring})

	h := q.NewHandle()
	for i := uint64(0); i < 256; i++ {
		h.Enqueue(i)
	}
	if err := q.SetWidth(2); err != nil {
		t.Fatal(err)
	}
	events := ring.Snapshot()
	if len(events) != 2 {
		t.Fatalf("got %d events from a populated shrink, want reconfig+handoff", len(events))
	}
	rc, sh := events[0], events[1]
	if rc.Kind != KindReconfig || sh.Kind != KindShrinkHandoff {
		t.Fatalf("event kinds = %v, %v; want reconfig then shrink-handoff", rc.Kind, sh.Kind)
	}
	if rc.Structure != "queue" || sh.Structure != "queue" {
		t.Fatal("events not labelled with the queue structure")
	}
	if rc.Epoch != sh.Epoch || rc.OldWidth != 4 || rc.Width != 2 {
		t.Fatalf("reconfig/handoff geometry mismatch: %+v vs %+v", rc, sh)
	}
	if sh.Displacement <= 0 || sh.Displacement != q.ShrinkDisplacementBound() {
		t.Fatalf("handoff displacement %d does not match the queue's bound %d",
			sh.Displacement, q.ShrinkDisplacementBound())
	}

	// Placement re-home emits its own kind with the socket count.
	q.SetPlacement(core.LocalFirst(), 2)
	events = ring.Snapshot()
	last := events[len(events)-1]
	if last.Kind != KindPlacement || last.Sockets != 2 {
		t.Fatalf("SetPlacement emitted %+v, want a placement event with 2 sockets", last)
	}
}

// TestRegisterStructureLive exercises the bridge over the real structures
// end to end: a live stack's exported counters must agree with its own
// StatsSnapshot, through the same Source interface the queue satisfies.
func TestRegisterStructureLive(t *testing.T) {
	s := core.MustNew[uint64](core.Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 1})
	q := twodqueue.MustNew[uint64](twodqueue.Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 1})

	now := time.Unix(0, 0)
	reg := NewRegistry()
	RegisterStructure(reg, "stack", s, func() time.Time { return now })
	RegisterStructure(reg, "queue", q, func() time.Time { return now })

	hs, hq := s.NewHandle(), q.NewHandle()
	for i := uint64(0); i < 1000; i++ {
		hs.Push(i)
		hq.Enqueue(i)
	}
	hs.FlushStats()
	hq.FlushStats()
	now = now.Add(time.Second)

	snap, _ := reg.ExpvarSnapshot().(map[string]any)
	if v := snap["stack2d_stack_pushes_total"]; v != float64(1000) {
		t.Fatalf("stack pushes exported %v, want 1000", v)
	}
	if v := snap["stack2d_queue_pushes_total"]; v != float64(1000) {
		t.Fatalf("queue enqueues exported %v, want 1000", v)
	}
	wantK := float64(s.Config().K())
	if v := snap["stack2d_stack_k_bound"]; v != wantK {
		t.Fatalf("stack k_bound exported %v, want %v", v, wantK)
	}
	if v := snap["stack2d_queue_shrink_displacement_bound"]; v != float64(0) {
		t.Fatalf("queue shrink bound exported %v before any shrink", v)
	}
}

// TestBufferMetricsExported scrapes the op-buffer metrics off a live
// stack and queue. Each has one buffered handle holding 2 pending items
// and one dropped unflushed with 3: once the collector takes the dropped
// handle (as in core's TestAbandonedItemsCounted), buffered_items reads 2
// and abandoned_items_total 3, and a flush of the live handle takes
// buffered_items to 0 while the loss stays counted.
func TestBufferMetricsExported(t *testing.T) {
	cfg := core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1}
	s := core.MustNew[int](cfg)
	q := twodqueue.MustNew[int](cfg)
	reg := NewRegistry()
	RegisterStructure(reg, "stack", s, nil)
	RegisterStructure(reg, "queue", q, nil)
	scrape := func(structure, suffix string) float64 {
		t.Helper()
		snap, _ := reg.ExpvarSnapshot().(map[string]any)
		v, ok := snap[MetricName(structure, suffix)].(float64)
		if !ok {
			t.Fatalf("%s is not exported", MetricName(structure, suffix))
		}
		return v
	}

	hs, hq := s.NewHandle(), q.NewHandle()
	hs.SetOpBuffer(8)
	hq.SetOpBuffer(8)
	for i := 0; i < 2; i++ {
		hs.BufferedPush(i)
		hq.BufferedEnqueue(i)
	}
	func() {
		ds, dq := s.NewHandle(), q.NewHandle()
		ds.SetOpBuffer(8)
		dq.SetOpBuffer(8)
		for i := 0; i < 3; i++ {
			ds.BufferedPush(i)
			dq.BufferedEnqueue(i)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.AbandonedItems() != 3 || q.AbandonedItems() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned items never counted: stack %d, queue %d", s.AbandonedItems(), q.AbandonedItems())
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	for _, st := range []string{"stack", "queue"} {
		if v := scrape(st, MBufferedItems); v != 2 {
			t.Errorf("%s buffered_items = %v, want 2", st, v)
		}
		if v := scrape(st, MAbandonedItemsTotal); v != 3 {
			t.Errorf("%s abandoned_items_total = %v, want 3", st, v)
		}
	}
	hs.FlushOps()
	hq.FlushOps()
	for _, st := range []string{"stack", "queue"} {
		if v := scrape(st, MBufferedItems); v != 0 {
			t.Errorf("%s buffered_items after FlushOps = %v, want 0", st, v)
		}
		if v := scrape(st, MAbandonedItemsTotal); v != 3 {
			t.Errorf("%s abandoned_items_total after FlushOps = %v, want 3", st, v)
		}
	}
}
