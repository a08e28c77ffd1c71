package harness

import (
	"stack2d/internal/relax"
	"stack2d/internal/twodqueue"
)

// queueHandleWorker is a 2D-Queue handle under the Worker names.
type queueHandleWorker struct{ h *twodqueue.Handle[uint64] }

func (w queueHandleWorker) Push(v uint64)       { w.h.Enqueue(v) }
func (w queueHandleWorker) Pop() (uint64, bool) { return w.h.Dequeue() }

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
