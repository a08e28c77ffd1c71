// Package director is a deterministic cooperative scheduler for the real
// concurrent structures (core.Stack, twodqueue.Queue, engine.Switcher). It
// drives chosen interleavings through the data-path yield gates
// (internal/yield, DESIGN.md §10): tasks run one at a time as coroutines,
// every gate hit hands control back to the director, and a
// pluggable Strategy picks which task runs next. The schedule is a pure
// function of (tasks, strategy, seed), so any run — including one that
// realises a worst-case relaxation distance — replays bit-for-bit.
//
// The director is not a model checker: it explores the schedules a strategy
// proposes, against the real compiled code, and records an interval history
// (seqspec.IntervalOp, ticks of the director's virtual clock) that feeds
// straight into seqspec.KStackChecker / KFIFOChecker and the
// internal/quality oracles. Exhaustive small-scope exploration stays with
// seqspec.ExploreStack; the director's trace replay (ReplayStackTrace)
// closes the loop by driving explorer counterexamples through the real
// structure.
//
// Concurrency model: each task is an iter.Pull coroutine, so exactly one
// of the director and its tasks runs at any instant. The director grants
// the chosen task a step by calling the coroutine's next function, which
// returns when the task reports back — by hitting a gate (one call of the
// coroutine's yield function, carrying the gate's point) or by finishing
// (ok false). The coroutine switches carry all the happens-before edges,
// so tasks may freely read the director's clock and the director may read
// task shards without atomics, and the whole arrangement is clean under
// -race.
package director

import (
	"fmt"
	"iter"
	"runtime/debug"
	"strings"

	"stack2d/internal/seqspec"
	"stack2d/internal/yield"
)

// Choice is one entry of the recorded schedule: at this step the director
// granted task Task, which was suspended at Point (PointSpawn before its
// first step).
type Choice struct {
	Task  int
	Point yield.Point
}

// DefaultMaxSteps bounds a directed run. A step is one grant; the cap only
// exists to turn a schedule-induced livelock (or a strategy bug) into a
// diagnosable error instead of a hung test.
const DefaultMaxSteps = 1 << 20

// abortSentinel unwinds a task coroutine when the director aborts the run;
// the task wrapper recovers it and reports a clean completion.
type abortSentinel struct{}

type task struct {
	id   int
	name string
	body func(*Task)
	// grant runs the task's coroutine to its next gate, returning the
	// gate's point (ok false once the body has returned); suspend, the
	// coroutine's yield, reports a gate back to the director.
	grant      func() (yield.Point, bool)
	suspend    func(yield.Point) bool
	done       bool
	parked     bool
	last       yield.Point
	ops        []seqspec.IntervalOp
	panicVal   any
	panicStack []byte
}

// Director owns the virtual clock, the task set and the recorded schedule
// of one directed run. Build with New, add tasks with Go, then Run once.
type Director struct {
	strategy Strategy
	maxSteps int

	clock    int64
	steps    int
	label    uint64
	tasks    []*task
	current  *task
	schedule []Choice
	aborted  bool
	ran      bool
	panicked *task

	coverage *Coverage
	probe    func() uint64
}

// New builds a director that schedules with the given strategy.
func New(s Strategy) *Director {
	return &Director{strategy: s, maxSteps: DefaultMaxSteps}
}

// SetMaxSteps overrides DefaultMaxSteps (testing the abort path, or very
// long storms).
func (d *Director) SetMaxSteps(n int) { d.maxSteps = n }

// SetCoverage attaches a coverage accumulator: every suspension of the run
// is Noted as a (task, point, abstract state) tuple. The accumulator
// outlives the director — the guided search shares one across all its runs.
// Must be called before Run.
func (d *Director) SetCoverage(c *Coverage) { d.coverage = c }

// SetStateProbe installs the structure-state abstraction the coverage
// signal hashes alongside each suspension (window position, population,
// geometry epoch — whatever the workload exposes). The probe runs on the
// director's goroutine while every task is suspended, so it may read the
// structures without synchronisation. Nil (the default) abstracts the
// structure state to 0, leaving pure control coverage.
func (d *Director) SetStateProbe(f func() uint64) { d.probe = f }

// Go registers a task. Tasks are identified by registration order (the id
// strategies see); name is for diagnostics only. Must be called before Run.
func (d *Director) Go(name string, body func(*Task)) {
	t := &task{id: len(d.tasks), name: name, body: body, last: yield.PointSpawn}
	d.tasks = append(d.tasks, t)
}

// Task is the in-task view of the director, passed to each task body. All
// methods must be called from the task's own coroutine while it holds the
// grant (which it always does while its body runs outside a gate).
type Task struct {
	d *Director
	t *task
}

// Label returns the next unique value label for this run (1, 2, 3, ...).
// Single-writer under the director's one-task-at-a-time discipline.
func (tc *Task) Label() uint64 {
	tc.d.label++
	return tc.d.label
}

// Yield offers the director an explicit switch point, exactly as a data-path
// gate would.
func (tc *Task) Yield() { tc.d.gateYield(yield.PointOpBegin) }

// Op records one operation of the task's history. It yields at the op
// boundary (PointOpBegin), stamps Begin from the virtual clock, runs do —
// any gates do() hits inside the data path yield as usual, advancing the
// clock — and stamps End when do returns. For OpPush, do returns the label
// pushed; for OpPop it returns the value popped and whether the structure
// yielded one (ok=false records an empty pop).
func (tc *Task) Op(kind seqspec.OpKind, do func() (uint64, bool)) {
	tc.d.gateYield(yield.PointOpBegin)
	begin := tc.d.clock
	v, ok := do()
	op := seqspec.IntervalOp{Kind: kind, Value: v, Begin: begin, End: tc.d.clock}
	if kind == seqspec.OpPop && !ok {
		op.Value = 0
		op.Empty = true
	}
	tc.t.ops = append(tc.t.ops, op)
}

// gateYield is installed into the data-path gates for the duration of Run.
// It runs on the granted task's coroutine: report the suspension, wait for
// the next grant.
func (d *Director) gateYield(p yield.Point) {
	t := d.current
	if t == nil {
		return
	}
	t.suspend(p)
	if d.aborted {
		panic(abortSentinel{})
	}
}

// Run executes the registered tasks to completion under the strategy and
// returns an error if the run aborted (step cap) instead of finishing. The
// data-path gates are installed on entry and restored on return; nothing
// else in the process may run gated operations concurrently with a directed
// run (tests are sequential, so in practice this means: don't).
func (d *Director) Run() error {
	if d.ran {
		return fmt.Errorf("director: Run called twice")
	}
	d.ran = true
	if len(d.tasks) == 0 {
		return nil
	}

	prev := yield.Gate
	yield.Gate = d.gateYield
	defer func() { yield.Gate = prev }()

	if d.coverage != nil {
		d.coverage.Begin()
	}
	for _, t := range d.tasks {
		t.grant, _ = iter.Pull(func(suspend func(yield.Point) bool) {
			defer func() {
				// A panic out of the task body (typically escaping Task.Op's
				// closure, i.e. the structure under test) is captured and
				// surfaced as Run's error with the task's stack — the
				// director aborts the remaining tasks instead of crashing
				// the process, so a directed run that provokes a panic is a
				// diagnosable, shrinkable failure.
				if r := recover(); r != nil {
					if _, abort := r.(abortSentinel); !abort {
						t.panicVal = r
						t.panicStack = debug.Stack()
					}
				}
			}()
			t.suspend = suspend
			if d.aborted {
				panic(abortSentinel{})
			}
			t.body(&Task{d: d, t: t})
		})
	}

	live := len(d.tasks)
	var lastChoice Choice
	for live > 0 {
		var state uint64
		if d.coverage != nil && d.probe != nil {
			// Safe: every task is suspended in its coroutine right now, so
			// the probe is the only code touching the structures.
			state = d.probe()
		}
		t := d.tasks[d.pick(lastChoice, state)]
		lastChoice = Choice{Task: t.id, Point: t.last}
		d.schedule = append(d.schedule, lastChoice)
		d.clock++
		d.steps++
		if d.steps > d.maxSteps {
			d.aborted = true
		}
		if d.coverage != nil {
			// Coverage is noted at grant time — (granted task, the point it
			// resumes from, abstract pre-step state) are all known before the
			// grant, which is what lets a StateAware strategy predict novelty
			// exactly. The note index equals the schedule index plus one.
			d.coverage.Note(t.id, t.last, state)
		}
		d.current = t
		point, ok := t.grant()
		d.current = nil
		if !ok {
			t.done = true
			live--
			if t.panicVal != nil && d.panicked == nil {
				d.panicked = t
				d.aborted = true
			}
			d.unparkAll()
			continue
		}
		t.last = point
		if point == yield.PointWait {
			// A wait-loop iteration is not progress; park the task so the
			// strategy prefers tasks that can move the run forward.
			t.parked = true
		} else {
			d.unparkAll()
		}
	}
	if d.panicked != nil {
		return fmt.Errorf("director: task %d (%s) panicked after %d steps: %v\n%s\n%s",
			d.panicked.id, d.panicked.name, d.steps, d.panicked.panicVal, d.taskStates(), d.panicked.panicStack)
	}
	if d.aborted {
		return fmt.Errorf("director: run aborted after %d steps (max %d); schedule livelock or cap too low\n%s",
			d.steps, d.maxSteps, d.taskStates())
	}
	return nil
}

// taskStates renders one diagnostic line per task — where each one last
// suspended, or that it finished — for the abort and panic errors.
func (d *Director) taskStates() string {
	var b strings.Builder
	b.WriteString("task states at abort:")
	for _, t := range d.tasks {
		switch {
		case t.panicVal != nil:
			fmt.Fprintf(&b, "\n  task %d (%s): panicked: %v", t.id, t.name, t.panicVal)
		case t.done:
			fmt.Fprintf(&b, "\n  task %d (%s): done", t.id, t.name)
		case t.parked:
			fmt.Fprintf(&b, "\n  task %d (%s): parked at %s", t.id, t.name, t.last)
		default:
			fmt.Fprintf(&b, "\n  task %d (%s): suspended at %s", t.id, t.name, t.last)
		}
	}
	return b.String()
}

// pick asks the strategy to choose among the runnable tasks. Parked tasks
// (suspended at PointWait) are offered only when every runnable task is
// parked — then one of them must be granted to re-check its wait condition.
// StateAware strategies additionally see each candidate's pending yield
// point and the abstract pre-step structure state.
func (d *Director) pick(last Choice, state uint64) int {
	runnable := make([]int, 0, len(d.tasks))
	for _, t := range d.tasks {
		if !t.done && !t.parked {
			runnable = append(runnable, t.id)
		}
	}
	if len(runnable) == 0 {
		for _, t := range d.tasks {
			if !t.done {
				runnable = append(runnable, t.id)
			}
		}
	}
	if len(runnable) == 1 {
		return runnable[0]
	}
	var idx int
	if sa, ok := d.strategy.(StateAware); ok {
		points := make([]yield.Point, len(runnable))
		for i, id := range runnable {
			points[i] = d.tasks[id].last
		}
		idx = sa.NextState(runnable, points, d.steps, last, state)
	} else {
		idx = d.strategy.Next(runnable, d.steps, last)
	}
	if idx < 0 || idx >= len(runnable) {
		idx = 0
	}
	return runnable[idx]
}

func (d *Director) unparkAll() {
	for _, t := range d.tasks {
		t.parked = false
	}
}

// Clock returns the virtual clock (ticks = grants so far). After Run it is
// the run's final time; AppendOp continues from it.
func (d *Director) Clock() int64 { return d.clock }

// Steps returns the number of grants issued.
func (d *Director) Steps() int { return d.steps }

// Schedule returns the recorded choice sequence — a complete, replayable
// description of the interleaving (granting tasks in this exact order
// reproduces the run; NewFollow does exactly that).
func (d *Director) Schedule() []Choice { return d.schedule }

// TaskNames returns the registered task names in id order, for schedule
// narration and diagnostics.
func (d *Director) TaskNames() []string {
	names := make([]string, len(d.tasks))
	for i, t := range d.tasks {
		names[i] = t.name
	}
	return names
}

// History merges the per-task shards in task order. Intervals carry virtual
// clock ticks; the checkers' stable sort on Begin reconstructs grant order
// (every op's Begin is a distinct tick). Call after Run.
func (d *Director) History() []seqspec.IntervalOp {
	var out []seqspec.IntervalOp
	for _, t := range d.tasks {
		out = append(out, t.ops...)
	}
	return out
}

// AppendOp records one sequential post-run operation (e.g. the verification
// drain after the directed phase) with a fresh tick strictly after every
// directed interval, keeping the merged history a valid interval history.
// Only meaningful after Run has returned.
func (d *Director) AppendOp(kind seqspec.OpKind, value uint64, empty bool) {
	d.clock++
	op := seqspec.IntervalOp{Kind: kind, Value: value, Empty: empty, Begin: d.clock, End: d.clock}
	if len(d.tasks) > 0 {
		t := d.tasks[len(d.tasks)-1]
		t.ops = append(t.ops, op)
	}
}
