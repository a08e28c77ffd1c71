package harness

import (
	"stack2d/internal/msqueue"
	"stack2d/internal/relax"
	"stack2d/internal/twodqueue"
)

// Queue adapters: the harness drives queues through the same Worker
// interface (Push = Enqueue, Pop = Dequeue), so the extension experiments
// (EXPERIMENTS.md §Extensions) reuse the stack methodology unchanged; a
// queue factory's FIFO order gives its quality runs the FIFO oracle.

type twoDQueueInstance struct{ q *twodqueue.Queue[uint64] }

func (i twoDQueueInstance) NewWorker() Worker { return queueHandleWorker{i.q.NewHandle()} }
func (i twoDQueueInstance) Len() int          { return i.q.Len() }

type queueHandleWorker struct{ h *twodqueue.Handle[uint64] }

func (w queueHandleWorker) Push(v uint64)       { w.h.Enqueue(v) }
func (w queueHandleWorker) Pop() (uint64, bool) { return w.h.Dequeue() }

// NewTwoDQueueFactory wraps a 2D-Queue configuration for the harness.
func NewTwoDQueueFactory(cfg twodqueue.Config) Factory {
	return Factory{
		Name:  "2D-queue",
		K:     cfg.K(),
		Order: relax.OrderFIFO,
		New:   func() Instance { return twoDQueueInstance{twodqueue.MustNew[uint64](cfg)} },
	}
}

type msQueueInstance struct{ q *msqueue.Queue[uint64] }

func (i msQueueInstance) NewWorker() Worker { return msQueueWorker{i.q} }
func (i msQueueInstance) Len() int          { return i.q.Len() }

type msQueueWorker struct{ q *msqueue.Queue[uint64] }

func (w msQueueWorker) Push(v uint64)       { w.q.Enqueue(v) }
func (w msQueueWorker) Pop() (uint64, bool) { return w.q.Dequeue() }

// NewMSQueueFactory wraps the strict Michael–Scott baseline (k = 0).
func NewMSQueueFactory() Factory {
	return Factory{
		Name:  "ms-queue",
		K:     0,
		Order: relax.OrderFIFO,
		New:   func() Instance { return msQueueInstance{msqueue.New[uint64]()} },
	}
}

// RunPhasedQueue drives a phase-shifting workload against a 2D-Queue —
// Push = Enqueue, Pop = Dequeue, and the quality instrument is the FIFO
// error-distance oracle instead of the LIFO one. As with RunPhased, the
// caller owns any controller attached to the queue, so the same function
// serves both the static baseline and the adaptive run in
// cmd/adapttune -queue.
func RunPhasedQueue(q *twodqueue.Queue[uint64], phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	return runPhased(func(id int) (Worker, func()) {
		h := q.NewHandle()
		if id >= 0 {
			// Pin by worker index, as RunPhased does for the stack
			// (fill-socket-0-first); inert without placement.
			h.Pin(q.PlacementSocketFor(id))
		}
		return queueHandleWorker{h}, h.FlushStats
	}, relax.OrderFIFO, phases, w, 0)
}
