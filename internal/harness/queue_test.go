package harness

import (
	"testing"
	"time"

	"stack2d/internal/twodqueue"
)

func TestQueueFactoriesProduceOps(t *testing.T) {
	factories := []Factory{
		NewTwoDQueueFactory(twodqueue.DefaultConfig(2)),
		NewMSQueueFactory(),
	}
	for _, f := range factories {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			res, err := Run(f, quickWorkload(2))
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops == 0 {
				t.Fatal("queue run completed zero operations")
			}
		})
	}
}

func TestQueueFactoryK(t *testing.T) {
	cfg := twodqueue.Config{Width: 3, Depth: 8, Shift: 4, RandomHops: 1}
	if f := NewTwoDQueueFactory(cfg); f.K != cfg.K() {
		t.Fatalf("factory K = %d, want %d", f.K, cfg.K())
	}
	if f := NewMSQueueFactory(); f.K != 0 {
		t.Fatalf("ms-queue K = %d, want 0", f.K)
	}
}

func TestQueueFIFOQualityIsZeroForStrict(t *testing.T) {
	// Only the plumbing: a queue factory runs and counts under Run.
	w := quickWorkload(1)
	w.Duration = 10 * time.Millisecond
	res, err := Run(NewMSQueueFactory(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no ops")
	}
}

func TestRunQueueQualityStrictFIFOZero(t *testing.T) {
	w := quickWorkload(1)
	w.Duration = 15 * time.Millisecond
	res, err := RunQuality(NewMSQueueFactory(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Count == 0 {
		t.Fatal("no dequeues measured")
	}
	if res.Quality.Mean() != 0 {
		t.Fatalf("ms-queue FIFO mean error = %g, want 0", res.Quality.Mean())
	}
}

func TestRunQueueQualityRelaxedNonZero(t *testing.T) {
	w := quickWorkload(1)
	w.Duration = 20 * time.Millisecond
	cfg := twodqueue.Config{Width: 16, Depth: 16, Shift: 16, RandomHops: 2}
	res, err := RunQuality(NewTwoDQueueFactory(cfg), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Count == 0 {
		t.Fatal("no dequeues measured")
	}
	if res.Quality.Mean() == 0 {
		t.Fatal("relaxed 2D-queue scored exact FIFO; oracle wiring suspect")
	}
	if int64(res.Quality.Max) > cfg.K()+64 {
		t.Fatalf("FIFO error %d far exceeds bound %d", res.Quality.Max, cfg.K())
	}
}

// TestStrictQueueFIFOErrorIsInFlightSlack pins the FIFO record point: a
// strict queue's realised FIFO distance under concurrency is only the
// oracle's in-flight slack. A label ahead of a dequeued v in the
// invocation-ordered side-list is a dequeue that unlinked it before v but
// has not been scored yet (one per other worker), or an enqueue recorded
// before v whose link lands behind v (one per worker, the dequeuer
// included, since a worker records and links one item at a time): at most
// 2P-1. Recording on completion instead lets a preempted enqueuer's item
// be dequeued before its record, and the wait-then-score Remove measures
// it against the whole resident queue (maxima in the thousands).
func TestStrictQueueFIFOErrorIsInFlightSlack(t *testing.T) {
	const p = 4
	w := Workload{Workers: p, Duration: 200 * time.Millisecond, PushRatio: 0.5, Prefill: 1024, Seed: 9}
	res, err := RunQuality(NewMSQueueFactory(), w)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.Count == 0 {
		t.Fatal("no dequeues measured")
	}
	t.Logf("strict ms-queue at P=%d: max FIFO error %d, mean %.3f", p, res.Quality.Max, res.Quality.Mean())
	if bound := 2*p - 1; res.Quality.Max > bound {
		t.Fatalf("strict ms-queue max FIFO error %d over %d (mean %.2f): the oracle records enqueues late",
			res.Quality.Max, bound, res.Quality.Mean())
	}
}

func TestThinkSpinValidation(t *testing.T) {
	w := quickWorkload(1)
	w.ThinkSpin = -1
	if err := w.Validate(); err == nil {
		t.Fatal("negative ThinkSpin accepted")
	}
}

func TestThinkSpinSlowsThroughput(t *testing.T) {
	fast := quickWorkload(2)
	slow := fast
	slow.ThinkSpin = 2000
	fres, err := Run(NewTreiberFactory(), fast)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(NewTreiberFactory(), slow)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Throughput >= fres.Throughput {
		t.Fatalf("think time did not reduce throughput: %0.f >= %0.f",
			sres.Throughput, fres.Throughput)
	}
}

// TestRunPhasedQueue drives the queue phased runner end to end: ops in
// every phase, quality measured with the FIFO oracle, and conservation of
// the population implied by the counters.
func TestRunPhasedQueue(t *testing.T) {
	q := twodqueue.MustNew[uint64](twodqueue.Config{Width: 4, Depth: 16, Shift: 16, RandomHops: 1})
	phases := ContentionPhases(4, 25*time.Millisecond)
	res, err := RunPhasedQueue(q, phases, PhasedWorkload{MaxWorkers: 4, Prefill: 2048, Seed: 7, Quality: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 3 || res.TotalOps == 0 {
		t.Fatalf("unexpected result shape: %d phases, %d ops", len(res.Phases), res.TotalOps)
	}
	for _, p := range res.Phases {
		if p.Ops == 0 {
			t.Fatalf("phase %s completed zero operations", p.Phase.Name)
		}
	}
	if res.Quality.Count == 0 {
		t.Fatal("FIFO oracle measured zero dequeues")
	}
	// The realised distance must stay within the sequential bound plus the
	// documented concurrency slack (one position per in-flight operation,
	// doubled for the invocation-order oracle recording).
	bound := q.Config().K() + 2*4
	if int64(res.Quality.Max) > bound {
		t.Fatalf("realised FIFO distance %d exceeds bound %d", res.Quality.Max, bound)
	}
	snap := q.StatsSnapshot()
	if got, want := q.Len(), int(snap.Pushes)-int(snap.Pops); got != want {
		t.Fatalf("queue holds %d items but counters say %d", got, want)
	}
}

// TestRunPhasedQueueWithReconfiguration runs the phased workload while the
// geometry cycles underneath it, mirroring the adaptive path without a
// controller in the loop.
func TestRunPhasedQueueWithReconfiguration(t *testing.T) {
	q := twodqueue.MustNew[uint64](twodqueue.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 1})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		geoms := []twodqueue.Config{
			{Width: 8, Depth: 16, Shift: 16, RandomHops: 2},
			{Width: 2, Depth: 8, Shift: 8, RandomHops: 1},
			{Width: 4, Depth: 64, Shift: 64, RandomHops: 2},
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
				if err := q.Reconfigure(geoms[i%len(geoms)]); err != nil {
					t.Errorf("Reconfigure: %v", err)
					return
				}
			}
		}
	}()
	res, err := RunPhasedQueue(q, ContentionPhases(4, 25*time.Millisecond),
		PhasedWorkload{MaxWorkers: 4, Prefill: 1024, Seed: 3})
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalOps == 0 {
		t.Fatal("no operations completed under live reconfiguration")
	}
	snap := q.StatsSnapshot()
	if got, want := q.Len(), int(snap.Pushes)-int(snap.Pops); got != want {
		t.Fatalf("queue holds %d items but counters say %d (reconfiguration lost items)", got, want)
	}
}
