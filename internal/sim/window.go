package sim

import (
	"fmt"
	"sync/atomic"
	"time"

	"stack2d/internal/core"
	"stack2d/internal/xrand"
)

// This file runs the two window structures, the 2D-Stack (internal/core)
// and the 2D-Queue (internal/twodqueue), on the simulated machine. The
// window search is not modelled: every simulated thread owns a real
// core.WindowHandle and runs core.WindowHandle.Search, the walk both
// structures compile natively. The simulator supplies only what it prices
// — the visitors (the validity test and the atomic step, on Words) and the
// window move after a failed pass — and counts them as native code does,
// so a segment's counters are a core.OpStats that cmd/adapttune feeds to
// the adaptive controller unchanged.
//
// A slot is modelled by the words its operations CAS, each holding the
// counter the window compares with its ceiling: a sub-stack's item count,
// a sub-queue's completed enqueues and dequeues. Payloads and the
// Michael–Scott list bodies are not modelled, and the queue is treated as
// heavily prefilled: a dequeue-valid slot always yields an item.

// slot is one simulated sub-structure: the counter word of each window end,
// homed on the slot's socket. The stack uses end 0, its item count; the
// queue's end 0 counts completed enqueues and end 1 completed dequeues.
type slot struct{ end [2]*Word }

// handle is a simulated thread's window handle. Its item type is unused.
type handle = core.WindowHandle[struct{}, slot]

// segment is one simulated run of a window structure: a core.Window over
// slots on a fresh machine, plus the ceiling word of each end.
type segment struct {
	sim  *Sim
	win  core.Window[struct{}, slot]
	geo  *core.Geometry[slot]
	ceil [2]*Word
	// mirror is each ceiling word's value as Search reads it, from an
	// atomic.Int64. The copy is exact: the scheduler runs one thread at a
	// time, and a window move stores it in the same step its CAS wins.
	mirror [2]atomic.Int64
}

// start is a stack segment's initial state: every slot's item count and
// the window ceiling.
type start struct{ fill, ceiling int64 }

// prefillSim is the standing population per slot of the simulated
// experiments; no run's horizon drains it.
const prefillSim = 1 << 20

// prefilled is the start of the simulated stack experiments: the window
// straddles the prefill level (pushes valid up to depth/2 above it, pops
// down to depth/2 below), as in a warmed-up stack whose Global has settled
// around the standing population.
func prefilled(depth int64) start { return start{prefillSim, prefillSim + depth/2} }

// TwoDSegment runs one simulated segment of the 2D-Stack: p threads, on
// cores 0..p-1, run a 50/50 push/pop mix at geometry cfg for horizon
// cycles from the prefilled start, so pops rarely observe empty. homes
// maps each slot to the socket holding its line (charged by the cost
// model, see NewWordOn; nil leaves the lines homeless), and localProbe
// selects the socket-aware search over those homes (DESIGN.md §7). It
// returns the threads' summed counters, with every operation's latency
// recorded in cycles read as nanoseconds. Deterministic for fixed inputs.
func TwoDSegment(m Machine, cfg core.Config, p int, horizon int64, seed uint64, homes []int, localProbe bool) (core.OpStats, error) {
	return stackSegment(m, cfg, p, horizon, seed, homes, localProbe, prefilled(cfg.Depth))
}

// stackSegment is TwoDSegment from the given start state.
func stackSegment(m Machine, cfg core.Config, p int, horizon int64, seed uint64, homes []int, localProbe bool, st start) (core.OpStats, error) {
	sg, err := newSegment(m, cfg, p, horizon, homes, localProbe, 1, st.fill, st.ceiling)
	if err != nil {
		return core.OpStats{}, err
	}
	return sg.run(p, horizon, seed, 1, sg.stackOp), nil
}

// TwoDQueueSegment is TwoDSegment for the 2D-Queue: a 50/50
// enqueue/dequeue mix, with both ends' counters starting at zero under
// ceilings half a window up.
func TwoDQueueSegment(m Machine, cfg core.Config, p int, horizon int64, seed uint64, homes []int, localProbe bool) (core.OpStats, error) {
	sg, err := newSegment(m, cfg, p, horizon, homes, localProbe, 2, 0, max(cfg.Depth/2, 1))
	if err != nil {
		return core.OpStats{}, err
	}
	return sg.run(p, horizon, seed, 2, sg.queueOp), nil
}

// newSegment validates a segment's inputs and builds its machine: width
// slots of `ends` counter words each holding fill, homed per homes, under
// a core.Window at cfg, and one ceiling word per end holding ceiling.
func newSegment(m Machine, cfg core.Config, p int, horizon int64, homes []int, localProbe bool, ends int, fill, ceiling int64) (*segment, error) {
	switch {
	case p < 1 || p > m.Cores():
		return nil, errRange("p", p)
	case horizon <= 0:
		return nil, errRange("horizon", int(horizon))
	case homes != nil && len(homes) != cfg.Width:
		return nil, fmt.Errorf("sim: %d slot homes for width %d", len(homes), cfg.Width)
	}
	s, err := New(m)
	if err != nil {
		return nil, err
	}
	for i, hm := range homes {
		if hm < 0 || hm >= m.Sockets {
			return nil, fmt.Errorf("sim: slot %d homed on socket %d of %d", i, hm, m.Sockets)
		}
	}
	sg := &segment{sim: s}
	err = sg.win.Init(cfg, core.Hooks[slot]{
		Grow: func(subs []*slot, cfg core.Config) []*slot {
			for i := len(subs); i < cfg.Width; i++ {
				home := -1
				if homes != nil {
					home = homes[i]
				}
				sl := &slot{}
				for e := 0; e < ends; e++ {
					sl.end[e] = s.NewWordOn(fill, home)
				}
				subs = append(subs, sl)
			}
			return subs
		},
		Raise: func(int64) {}, // the start state sets the ceilings
	})
	if err != nil {
		return nil, err
	}
	if homes != nil {
		sg.win.SetPlacement(given{homes, localProbe}, m.Sockets)
	}
	sg.geo = sg.win.Geometry()
	for e := 0; e < ends; e++ {
		sg.ceil[e] = s.NewWord(ceiling)
		sg.mirror[e].Store(ceiling)
	}
	return sg, nil
}

// given is the placement policy that homes slot i on homes[i]: it hands a
// segment's slot homes to core.Window.SetPlacement.
type given struct {
	homes []int
	local bool
}

func (g given) Name() string                        { return "given" }
func (g given) Home(idx, _ int, _ []int, _ int) int { return g.homes[idx] }
func (g given) LocalProbeOrder() bool               { return g.local }

// run simulates p threads for horizon cycles and returns the sum of their
// counters. Thread c runs on core c with its own handle, registered in
// core order with the given number of locality anchors and pinned to the
// core's socket, and with an op-choice stream seeded by seed and c that
// picks each operation's kind (insert: push or enqueue). Each operation is
// timed in cycles.
func (sg *segment) run(p int, horizon int64, seed uint64, anchors int, op func(t *T, h *handle, insert bool)) core.OpStats {
	hs := make([]*handle, p)
	for c := range hs {
		h := &handle{}
		sg.win.Register(h, anchors, core.BufferHooks[struct{}]{})
		hs[c] = h
		sg.sim.Go(c, func(t *T) {
			h.Pin(t.Socket())
			rng := xrand.New(seed + uint64(c)*0x9e3779b97f4a7c15)
			for t.Running() {
				began := t.Clock()
				op(t, h, rng.Bool())
				h.Count.Latency[core.LatencyBucket(time.Duration(t.Clock()-began))]++
				t.OpDone()
			}
		})
	}
	sg.sim.Run(horizon)
	var total core.OpStats
	for _, h := range hs {
		total.Add(h.Count)
	}
	return total
}

// search runs one core.WindowHandle.Search pass at end and charges each
// ceiling load it makes — one before the pass, one before every probe —
// as a read of the ceiling word, as native code makes those loads.
func (sg *segment) search(t *T, h *handle, end int, visit func(*slot, int64) core.Visit) (global int64, held, done bool) {
	ceil := sg.ceil[end]
	t.Read(ceil)
	return h.Search(sg.geo, end, &sg.mirror[end], func(s *slot, global int64) core.Visit {
		t.Read(ceil)
		return visit(s, global)
	})
}

// move is the window move after a failed pass: a CAS of end's ceiling from
// global to next, counted in won (WindowRaises or WindowLowers) only when
// it wins, as native code counts it.
func (sg *segment) move(t *T, end int, global, next int64, won *uint64) {
	if t.CAS(sg.ceil[end], global, next) {
		sg.mirror[end].Store(next)
		*won++
	}
}

// stackOp is core.Handle's Push (push) or Pop on the simulated slots.
func (sg *segment) stackOp(t *T, h *handle, push bool) {
	depth, shift := sg.geo.Depth, sg.geo.Shift
	delta, count := int64(-1), &h.Count.Pops
	if push {
		delta, count = 1, &h.Count.Pushes
	}
	visit := func(s *slot, global int64) core.Visit {
		w := s.end[0]
		c := t.Read(w)
		switch {
		case push && c >= global, !push && c <= max(global-depth, 0):
			return core.Skip
		case !t.CAS(w, c, c+delta):
			return core.Lost
		}
		*count++
		return core.Done
	}
	for {
		global, _, done := sg.search(t, h, 0, visit)
		switch {
		case done:
			return
		case push:
			sg.move(t, 0, global, global+shift, &h.Count.WindowRaises)
		case global <= depth:
			h.Count.EmptyPops++
			return
		default:
			sg.move(t, 0, global, max(global-shift, depth), &h.Count.WindowLowers)
		}
	}
}

// queueOp is twodqueue.Handle's Enqueue (enq) or Dequeue on the simulated
// slots. A dequeue slot at its ceiling is Held, as the prefilled queue's
// sub-queues always have items beyond it, so a failed dequeue pass always
// raises the window and never reports empty.
func (sg *segment) queueOp(t *T, h *handle, enq bool) {
	end, count, moves, atCeiling := 1, &h.Count.Pops, &h.Count.WindowLowers, core.Held
	if enq {
		end, count, moves, atCeiling = 0, &h.Count.Pushes, &h.Count.WindowRaises, core.Skip
	}
	visit := func(s *slot, global int64) core.Visit {
		w := s.end[end]
		c := t.Read(w)
		switch {
		case c >= global:
			return atCeiling
		case !t.CAS(w, c, c+1):
			return core.Lost
		}
		*count++
		return core.Done
	}
	for {
		global, _, done := sg.search(t, h, end, visit)
		if done {
			return
		}
		sg.move(t, end, global, global+sg.geo.Shift, moves)
	}
}
