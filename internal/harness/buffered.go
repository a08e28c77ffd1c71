package harness

import (
	"stack2d/internal/core"
	"stack2d/internal/relax"
	"stack2d/internal/twodqueue"
)

// Buffered adapters: the same 2D structures driven through per-handle
// operation buffers (core/twodqueue SetOpBuffer — the combined-publication
// fast path of DESIGN.md §11). Buffered runs share a caveat the plain
// ones don't have: buffered operations linearize at publish/serve, so
// recorded histories must be budgeted K + seqspec.BufferAllowance — and
// the fairness premise requires that workers never park with non-empty
// buffers. Phased runs driving buffered workers must therefore keep every
// worker active in every phase (Workers == MaxWorkers); the conformance
// hammers do.

type bufferedStackWorker struct{ h *core.Handle[uint64] }

func (w bufferedStackWorker) Push(v uint64)       { w.h.BufferedPush(v) }
func (w bufferedStackWorker) Pop() (uint64, bool) { return w.h.BufferedPop() }

type bufferedQueueWorker struct{ h *twodqueue.Handle[uint64] }

func (w bufferedQueueWorker) Push(v uint64)       { w.h.BufferedEnqueue(v) }
func (w bufferedQueueWorker) Pop() (uint64, bool) { return w.h.BufferedDequeue() }

// RunPhasedBuffered is RunPhased with every worker's handle armed with an
// op buffer of the given threshold. Worker exit publishes pending pushes
// (FlushOps) before the final stats flush; undelivered prefetched values
// stay with the abandoned handle, which the BufferAllowance budget's
// prefetch-residency term covers. Use all-active phases only (see the
// package note on the fairness premise).
func RunPhasedBuffered(s *core.Stack[uint64], bufCap int, phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	return runPhased(func(id int) (Worker, func()) {
		h := s.NewHandle()
		if id >= 0 {
			h.Pin(s.PlacementSocketFor(id))
			h.SetOpBuffer(bufCap) // the prefill worker (id -1) stays unbuffered
		}
		return bufferedStackWorker{h}, func() {
			h.FlushOps()
			h.FlushStats()
		}
	}, relax.OrderLIFO, phases, w, 0)
}

// RunPhasedQueueBuffered is RunPhasedQueue with buffered workers; see
// RunPhasedBuffered.
func RunPhasedQueueBuffered(q *twodqueue.Queue[uint64], bufCap int, phases []Phase, w PhasedWorkload) (PhasedResult, error) {
	return runPhased(func(id int) (Worker, func()) {
		h := q.NewHandle()
		if id >= 0 {
			h.Pin(q.PlacementSocketFor(id))
			h.SetOpBuffer(bufCap)
		}
		return bufferedQueueWorker{h}, func() {
			h.FlushOps()
			h.FlushStats()
		}
	}, relax.OrderFIFO, phases, w, 0)
}
