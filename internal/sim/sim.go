// Package sim is a deterministic discrete-event simulator of threads
// executing atomic operations against a NUMA cache-coherence cost model.
//
// Why it exists: the paper's evaluation runs on a 2-socket, 16-core Xeon,
// where the dominant effect is cache-line ping-pong — a CAS on a line last
// written by another core stalls for a coherence transfer, and the stall is
// larger across sockets. The container this reproduction was developed in
// exposes a single hardware thread, so that effect cannot occur natively;
// per the substitution rule (DESIGN.md §3) this package simulates it,
// letting the benchmark suite recover the *shape* of the paper's
// throughput results (which design wins under contention, where the
// inter-socket cliff falls) even though wall-clock measurements here
// cannot.
//
// # Model
//
// Memory is a set of Words, each living on its own cache line. Every line
// tracks a version (bumped on write) and its last writer. Each simulated
// thread keeps the version it last observed per line:
//
//   - an access to a line whose version the thread has already observed
//     costs LocalCost (cache hit);
//   - otherwise it costs IntraSocketCost or InterSocketCost depending on
//     the distance to the last writer (coherence transfer), after which
//     the thread has the line cached.
//
// Writes and CASes additionally take exclusive ownership (bump the
// version), invalidating every other thread's cached copy — exactly the
// MESI behaviour that serialises hot-spot data structures.
//
// Threads are coroutines (iter.Pull) executing real algorithm code against
// sim.Word values: every memory access suspends the thread, and a
// lockstep scheduler always resumes the thread with the smallest local
// clock, so executions are deterministic, interleaved at memory-access
// granularity, and CAS failures arise organically from the interleaving
// rather than from a probabilistic model.
package sim

import (
	"fmt"
	"iter"
)

// Machine describes the simulated topology and cost model (cycles).
type Machine struct {
	Sockets         int
	CoresPerSocket  int
	LocalCost       int64 // cache hit
	IntraSocketCost int64 // line transfer from a core on the same socket
	InterSocketCost int64 // line transfer across sockets
	ComputePerOp    int64 // fixed per-operation local work (instruction cost)
}

// DefaultMachine models the paper's testbed: two sockets, eight cores
// each, with conventional latency ratios (hit 1, intra-socket ~40,
// inter-socket ~100 cycles).
func DefaultMachine() Machine {
	return Machine{
		Sockets:         2,
		CoresPerSocket:  8,
		LocalCost:       1,
		IntraSocketCost: 40,
		InterSocketCost: 100,
		ComputePerOp:    30,
	}
}

// Validate reports whether the machine description is usable.
func (m Machine) Validate() error {
	switch {
	case m.Sockets < 1 || m.CoresPerSocket < 1:
		return fmt.Errorf("sim: need at least one socket and one core, got %d/%d", m.Sockets, m.CoresPerSocket)
	case m.LocalCost < 1 || m.IntraSocketCost < m.LocalCost || m.InterSocketCost < m.IntraSocketCost:
		return fmt.Errorf("sim: costs must satisfy 1 <= local <= intra <= inter")
	case m.ComputePerOp < 0:
		return fmt.Errorf("sim: ComputePerOp must be >= 0")
	}
	return nil
}

// Cores returns the total core count.
func (m Machine) Cores() int { return m.Sockets * m.CoresPerSocket }

// Word is one simulated memory word on a private cache line.
type Word struct {
	id         int
	value      int64
	version    uint64
	lastWriter int   // core id, -1 when untouched
	readyAt    int64 // earliest cycle the next exclusive access may start
	home       int   // socket whose memory holds the line, -1 = uniform
}

// Sim owns the simulated machine, words and threads. Create with New, add
// threads with Go, then call Run.
type Sim struct {
	machine Machine
	words   []*Word
	threads []*thread
	horizon int64
}

// New returns an empty simulation on the given machine.
func New(machine Machine) (*Sim, error) {
	if err := machine.Validate(); err != nil {
		return nil, err
	}
	return &Sim{machine: machine}, nil
}

// MustNew is New that panics on an invalid machine.
func MustNew(machine Machine) *Sim {
	s, err := New(machine)
	if err != nil {
		panic(err)
	}
	return s
}

// NewWord allocates a word initialised to v on its own cache line, with no
// NUMA home (untouched-line fetches cost LocalCost regardless of socket).
func (s *Sim) NewWord(v int64) *Word {
	return s.NewWordOn(v, -1)
}

// NewWordOn allocates a word homed on the given socket's memory: while no
// core has written the line, a fetch from a remote socket pays the
// inter-socket transfer cost (a remote-node DRAM/directory fetch) instead
// of LocalCost — the placement-dependent cost per slot that makes slot
// homes matter to the model even before the first CAS. Once written, the
// usual last-writer coherence costs take over. Pass socket -1 for a
// homeless word (equivalent to NewWord).
func (s *Sim) NewWordOn(v int64, socket int) *Word {
	if socket >= s.machine.Sockets {
		socket = s.machine.Sockets - 1
	}
	w := &Word{id: len(s.words), value: v, lastWriter: -1, home: socket}
	s.words = append(s.words, w)
	return w
}

// thread is the scheduler-side state of one simulated thread.
type thread struct {
	id     int
	core   int
	socket int
	clock  int64
	cached map[int]uint64 // word id -> version last observed
	// grant runs the thread's coroutine until its next memory access (or
	// its end: ok false); suspend, the coroutine's yield, returns control.
	grant   func() (struct{}, bool)
	suspend func(struct{}) bool
	done    bool  // thread function returned
	ops     int64 // completed operations (via T.OpDone)
}

// T is the handle a simulated thread's body uses to access memory. All
// methods must be called only from inside the body function.
type T struct {
	s  *Sim
	th *thread
}

// Go adds a simulated thread pinned to the given core (cores are assigned
// round-robin per socket: core c lives on socket c / CoresPerSocket,
// mirroring the paper's fill-one-socket-first pinning). The body runs when
// Run is called.
func (s *Sim) Go(core int, body func(t *T)) {
	th := &thread{
		id:     len(s.threads),
		core:   core,
		socket: core / s.machine.CoresPerSocket,
		cached: make(map[int]uint64),
	}
	s.threads = append(s.threads, th)
	th.grant, _ = iter.Pull(func(suspend func(struct{}) bool) {
		th.suspend = suspend
		body(&T{s: s, th: th})
	})
}

// Run executes the simulation until every thread's clock reaches horizon
// (threads observe this via T.Running) and every body has returned. It
// returns the per-thread completed-operation counts.
func (s *Sim) Run(horizon int64) []int64 {
	s.horizon = horizon
	live := len(s.threads)
	for live > 0 {
		// Pick the live thread with the smallest clock (deterministic
		// tie-break by id).
		var next *thread
		for _, th := range s.threads {
			if th.done {
				continue
			}
			if next == nil || th.clock < next.clock {
				next = th
			}
		}
		if next == nil {
			break
		}
		if _, ok := next.grant(); !ok {
			next.done = true
			live--
		}
	}
	ops := make([]int64, len(s.threads))
	for i, th := range s.threads {
		ops[i] = th.ops
	}
	return ops
}

// yield hands control back to the scheduler after charging cost.
func (t *T) yield(cost int64) {
	t.th.clock += cost
	t.th.suspend(struct{}{})
}

// transferCost is the coherence cost of fetching w's line from its last
// writer (LocalCost when untouched or same-core); an untouched line homed
// on another socket instead costs the inter-socket transfer (remote memory
// fetch — see NewWordOn).
func (t *T) transferCost(w *Word) int64 {
	m := t.s.machine
	if w.lastWriter < 0 {
		if w.home >= 0 && w.home != t.th.socket {
			return m.InterSocketCost
		}
		return m.LocalCost
	}
	if w.lastWriter == t.th.core {
		return m.LocalCost
	}
	if w.lastWriter/m.CoresPerSocket == t.th.socket {
		return m.IntraSocketCost
	}
	return m.InterSocketCost
}

// yieldRead charges a read access: a cache hit costs LocalCost; a miss is
// a coherence transfer. Reads do not serialise on the line (shared state).
func (t *T) yieldRead(w *Word) {
	m := t.s.machine
	if v, ok := t.th.cached[w.id]; ok && v == w.version {
		t.yield(m.LocalCost)
		return
	}
	start := t.th.clock
	if w.readyAt > start {
		start = w.readyAt // wait out an in-flight exclusive transfer
	}
	end := start + t.transferCost(w)
	t.yield(end - t.th.clock)
}

// yieldExclusive charges an exclusive (write/CAS) access. Exclusive
// ownership of a line is serialised: each request-for-ownership starts no
// earlier than the line's readyAt and reserves the line until it
// completes. This is the mechanism that makes a single hot CAS word a
// scalability bottleneck — exactly the effect the paper's design avoids.
func (t *T) yieldExclusive(w *Word) {
	m := t.s.machine
	cost := t.transferCost(w)
	if v, ok := t.th.cached[w.id]; ok && v == w.version && w.lastWriter == t.th.core {
		cost = m.LocalCost // already held in modified state
	}
	start := t.th.clock
	if w.readyAt > start {
		start = w.readyAt
	}
	end := start + cost
	w.readyAt = end // reserve the line for the duration of the transfer
	t.yield(end - t.th.clock)
}

// Running reports whether the thread should continue its loop; it becomes
// false once the thread's clock passes the Run horizon.
func (t *T) Running() bool { return t.th.clock < t.s.horizon }

// Clock returns the thread's local time in cycles.
func (t *T) Clock() int64 { return t.th.clock }

// Core returns the core this thread is pinned to.
func (t *T) Core() int { return t.th.core }

// Socket returns the socket of the thread's core (cores fill socket 0
// first, CoresPerSocket cores per socket).
func (t *T) Socket() int { return t.th.socket }

// Read returns w's value, charging the coherence cost.
func (t *T) Read(w *Word) int64 {
	t.yieldRead(w)
	t.th.cached[w.id] = w.version
	return w.value
}

// CAS installs next if w still holds old, charging the exclusive-access
// cost; it reports success. The version bump invalidates all other
// threads' cached copies, and the line reservation serialises competing
// exclusive accesses.
func (t *T) CAS(w *Word, old, next int64) bool {
	t.yieldExclusive(w)
	if w.value != old {
		t.th.cached[w.id] = w.version
		return false
	}
	w.value = next
	w.version++
	w.lastWriter = t.th.core
	t.th.cached[w.id] = w.version
	return true
}

// Write stores v unconditionally (exclusive access).
func (t *T) Write(w *Word, v int64) {
	t.yieldExclusive(w)
	w.value = v
	w.version++
	w.lastWriter = t.th.core
	t.th.cached[w.id] = w.version
}

// Compute charges local work without touching memory.
func (t *T) Compute(cycles int64) {
	if cycles > 0 {
		t.yield(cycles)
	}
}

// OpDone records one completed high-level operation for throughput
// accounting and charges the fixed per-op instruction cost.
func (t *T) OpDone() {
	t.th.ops++
	t.Compute(t.s.machine.ComputePerOp)
}
