// Package engine composes the relaxation catalogue's backends
// (relax.Backend) into one hot-swappable structure: a Switcher holds a
// registry of backends sharing a sequential discipline, exactly one of
// which is active, and swaps the active one mid-run without stopping the
// callers.
//
// The swap protocol reuses the epoch-pinning idea of the 2D structures'
// live reconfiguration (DESIGN.md §4), one level up: every operation pins
// the active slot for its duration, a swap marks the outgoing slot
// draining and quiesces it (new operations bounce to the published slot;
// pinned ones finish), then the residual items migrate to the incoming
// backend in pop order and the new slot publishes atomically. Callers
// observe at most a brief stall, never an error and never a lost item.
// The pin is a reader indicator striped over padded counters, which
// handles are dealt round-robin, so handles on different stripes write no
// common line (DESIGN.md §9).
//
// # Semantics accounting
//
// A swap freezes at most the outgoing backend's k-bound of misordering
// into the migrated prefix (each drained item sits within k places of its
// strict position, and the migration preserves drain order), so the
// checker budget for a history spanning swaps is
//
//	max KBound over the backends that were active
//	  + SwapDisplacementBound()            (swap migrations)
//	  + per-backend shrink displacement    (2D warm handoffs, if any)
//
// which is exactly the accounting the conformance swap hammer pins.
// Backends without a deterministic bound (KBound < 0) are rejected at
// Register: a switcher's history is always checkable.
package engine

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"stack2d/internal/core"
	"stack2d/internal/pad"
	"stack2d/internal/relax"
	"stack2d/internal/yield"
)

// SwapRecord describes one completed backend swap.
type SwapRecord struct {
	Seq      int    // 0-based swap index on this switcher
	From, To string // catalogue names (relax.Algorithm.String)
	Reason   string // the caller's stated trigger, e.g. "k-budget-zero"
	Migrated int    // residual items moved from the old backend
	// Displacement is the checker-allowance increment this swap added:
	// min(outgoing KBound, Migrated−1), the misordering the drain could
	// have frozen into the migrated prefix.
	Displacement int64
	FromK, ToK   int64
}

// slot is one registered backend plus its epoch-pinning state. pins holds
// one padded counter per stripe: a handle pins and unpins only its own
// stripe, so a slot's pinned total is the sum over the stripes.
type slot[T any] struct {
	b        relax.Backend[T]
	pins     []pad.Int64Line
	draining atomic.Bool
}

// Switcher is a relax.Backend whose implementation can be exchanged
// mid-run. Create with New, add alternatives with Register, change the
// active one with Swap. All methods are safe for concurrent use; handles
// follow the usual one-goroutine-per-handle rule.
type Switcher[T any] struct {
	ordering relax.Ordering

	mu     sync.Mutex
	names  []string // registration order
	byName map[string]*slot[T]
	swaps  []SwapRecord
	onSwap func(SwapRecord)

	// stripes is every slot's pin-stripe count, a power of two;
	// nextStripe deals the stripes to handles round-robin.
	stripes    int
	nextStripe atomic.Uint64

	active atomic.Pointer[slot[T]]
	disp   atomic.Int64
	maxK   atomic.Int64
}

// New builds a switcher with initial as the active backend. The initial
// backend fixes the switcher's ordering (LIFO or FIFO); like every
// registered backend it must have a deterministic bound (KBound >= 0).
// Every slot's pin is striped over the smallest power of two at least
// GOMAXPROCS, read once here.
func New[T any](initial relax.Backend[T]) (*Switcher[T], error) {
	return newStriped(initial, 1<<bits.Len(uint(runtime.GOMAXPROCS(0)-1)))
}

// newStriped is New with the stripe count (a power of two) given.
func newStriped[T any](initial relax.Backend[T], stripes int) (*Switcher[T], error) {
	ord := initial.Algorithm().Ordering()
	if ord == relax.OrderNone {
		return nil, fmt.Errorf("engine: %v has pool semantics; a switcher needs an ordering to preserve", initial.Algorithm())
	}
	if initial.KBound() < 0 {
		return nil, fmt.Errorf("engine: %v has no deterministic bound", initial.Algorithm())
	}
	sw := &Switcher[T]{ordering: ord, byName: map[string]*slot[T]{}, stripes: stripes}
	sl := sw.newSlot(initial)
	name := initial.Algorithm().String()
	sw.byName[name] = sl
	sw.names = append(sw.names, name)
	sw.maxK.Store(initial.KBound())
	sw.active.Store(sl)
	return sw, nil
}

// Register adds an inactive alternative the switcher may later swap to.
// The backend must share the switcher's ordering, carry a deterministic
// bound, and use a catalogue name not already registered.
func (s *Switcher[T]) Register(b relax.Backend[T]) error {
	name := b.Algorithm().String()
	if got := b.Algorithm().Ordering(); got != s.ordering {
		return fmt.Errorf("engine: %s is %v-ordered; this switcher is %v", name, got, s.ordering)
	}
	if b.KBound() < 0 {
		return fmt.Errorf("engine: %s has no deterministic bound", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.byName[name]; dup {
		return fmt.Errorf("engine: %s already registered", name)
	}
	s.byName[name] = s.newSlot(b)
	s.names = append(s.names, name)
	return nil
}

func (s *Switcher[T]) newSlot(b relax.Backend[T]) *slot[T] {
	return &slot[T]{b: b, pins: make([]pad.Int64Line, s.stripes)}
}

// Backends returns the registered catalogue names in registration order.
func (s *Switcher[T]) Backends() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// ActiveBackend returns the catalogue name of the active backend.
func (s *Switcher[T]) ActiveBackend() string {
	return s.active.Load().b.Algorithm().String()
}

// BackendKBound returns the registered backend's semantics budget, or
// false if no backend of that name is registered.
func (s *Switcher[T]) BackendKBound(name string) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sl, ok := s.byName[name]
	if !ok {
		return 0, false
	}
	return sl.b.KBound(), true
}

// SetOnSwap installs (or with nil removes) a callback invoked after every
// completed swap, under the switcher's swap lock — keep it fast and do
// not call back into the switcher. internal/obs provides the ring-buffer
// adapter (obs.SwapTracer).
func (s *Switcher[T]) SetOnSwap(fn func(SwapRecord)) {
	s.mu.Lock()
	s.onSwap = fn
	s.mu.Unlock()
}

// Swaps returns a copy of the completed swap records, in order.
func (s *Switcher[T]) Swaps() []SwapRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SwapRecord, len(s.swaps))
	copy(out, s.swaps)
	return out
}

// SwapCount returns how many effective swaps have completed (the metrics
// plane's counter; cheaper than len(Swaps())).
func (s *Switcher[T]) SwapCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.swaps)
}

// SwapBackend is Swap with the record dropped — the form the adapt
// layer's Selector calls through its BackendTarget interface.
func (s *Switcher[T]) SwapBackend(name, reason string) error {
	_, err := s.Swap(name, reason)
	return err
}

// Swap makes the named registered backend active: quiesce the outgoing
// backend (pinned operations finish; new ones stall briefly), drain it
// with one Drain, migrate the residual items into the incoming backend
// with one PushBatch preserving pop order, publish, and record the swap.
// Swapping to the already-active backend is a no-op that emits no record.
// reason is carried verbatim into the SwapRecord (and the observability
// event stream) so a trace explains why the engine moved.
func (s *Switcher[T]) Swap(name, reason string) (SwapRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	to, ok := s.byName[name]
	if !ok {
		return SwapRecord{}, fmt.Errorf("engine: no backend %q registered", name)
	}
	from := s.active.Load()
	if from == to {
		return SwapRecord{From: name, To: name, Reason: reason, Seq: len(s.swaps)}, nil
	}

	// Quiesce: stop admitting operations into the outgoing slot, then wait
	// for the pinned ones to finish, one stripe after another. New
	// operations spin on the active pointer and proceed the moment the
	// incoming slot publishes.
	from.draining.Store(true)
	// Director yield point: drain entry — the outgoing slot just stopped
	// admitting operations, pinned ones are still in flight.
	yield.Fire(yield.PointSwapDrain)
	for i := range from.pins {
		for from.pins[i].V.Load() != 0 {
			yield.Fire(yield.PointWait)
			runtime.Gosched()
		}
	}

	items := from.b.Drain()
	migrated := len(items)
	if migrated > 0 {
		if s.ordering == relax.OrderLIFO {
			// Drain order is pop order (top first); the batch goes in
			// bottom-up so the former top is on top again. FIFO keeps
			// dequeue order: the former front stays front.
			slices.Reverse(items)
		}
		mh := to.b.NewHandle()
		mh.PushBatch(items)
		mh.Flush()
	}

	var dispInc int64
	if migrated > 0 {
		dispInc = from.b.KBound()
		if max := int64(migrated - 1); dispInc > max {
			dispInc = max
		}
		s.disp.Add(dispInc)
	}
	if k := to.b.KBound(); k > s.maxK.Load() {
		s.maxK.Store(k)
	}

	to.draining.Store(false) // re-activation after an earlier retirement
	s.active.Store(to)

	rec := SwapRecord{
		Seq:          len(s.swaps),
		From:         from.b.Algorithm().String(),
		To:           name,
		Reason:       reason,
		Migrated:     migrated,
		Displacement: dispInc,
		FromK:        from.b.KBound(),
		ToK:          to.b.KBound(),
	}
	s.swaps = append(s.swaps, rec)
	if s.onSwap != nil {
		s.onSwap(rec)
	}
	return rec, nil
}

// SwapDisplacementBound returns the cumulative checker-allowance the
// completed swaps added (the sum of the per-swap Displacement fields) —
// the switcher-level analogue of core.Stack.ShrinkDisplacementBound.
func (s *Switcher[T]) SwapDisplacementBound() int64 { return s.disp.Load() }

// --- relax.Backend ----------------------------------------------------------

// Algorithm returns the active backend's catalogue identity; it changes
// across swaps.
func (s *Switcher[T]) Algorithm() relax.Algorithm {
	return s.active.Load().b.Algorithm()
}

// KBound returns the largest semantics budget of any backend that has
// been active — the bound a whole-run history is checked against (plus
// the displacement allowances; see the package comment).
func (s *Switcher[T]) KBound() int64 { return s.maxK.Load() }

// Len returns the active backend's population.
func (s *Switcher[T]) Len() int { return s.active.Load().b.Len() }

// Drain empties the active backend (teardown helper; quiescent callers
// only, like every Drain in the repository).
func (s *Switcher[T]) Drain() []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.active.Load().b.Drain()
}

// StatsSnapshot aggregates over every registered backend — active and
// retired — so totals survive swaps and late handle flushes are never
// lost. Migration re-pushes flow through ordinary adapter handles and
// therefore count; per-swap magnitudes are in Swaps() for callers that
// need to separate them.
func (s *Switcher[T]) StatsSnapshot() core.OpStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out core.OpStats
	for _, name := range s.names {
		out.Add(s.byName[name].b.StatsSnapshot())
	}
	return out
}

// NewHandle returns an operation handle. Handles survive swaps: on the
// first operation after a swap the handle flushes its counters and opens
// a fresh inner handle on the new backend.
func (s *Switcher[T]) NewHandle() relax.Handle[T] { return s.newHandle() }

// NewBufferedHandle returns a handle armed with an operation buffer of
// combined-publication threshold n (see Handle.SetOpBuffer) — the concrete
// type, since relax.Handle does not speak buffering.
func (s *Switcher[T]) NewBufferedHandle(n int) *Handle[T] {
	h := s.newHandle()
	h.SetOpBuffer(n)
	return h
}

// newHandle deals the next pin stripe round-robin.
func (s *Switcher[T]) newHandle() *Handle[T] {
	i := s.nextStripe.Add(1) - 1
	return &Handle[T]{sw: s, stripe: int(i & uint64(s.stripes-1))}
}

// Handle is the switcher's per-goroutine operation context. Not safe for
// concurrent use of the same handle.
type Handle[T any] struct {
	sw     *Switcher[T]
	stripe int // the slots' pin stripe this handle counts on
	cur    *slot[T]
	inner  relax.Handle[T]

	// bufCap/pending implement engine-level operation buffering
	// (SetOpBuffer; see opbuffer.go). Pending values belong to the handle,
	// not to any backend, which is what makes buffering swap-safe.
	bufCap  int
	pending []T
}

// pin acquires the active slot for one operation: pin the handle's stripe
// first, then check draining (the swap's store/load order makes the race
// safe — either the swapper's read of our stripe sees our pin, or we see
// its draining flag and retry on the newly published slot).
func (h *Handle[T]) pin() *slot[T] {
	for {
		s := h.sw.active.Load()
		pins := &s.pins[h.stripe].V
		pins.Add(1)
		if !s.draining.Load() {
			return s
		}
		pins.Add(-1)
		// Draining slot: park under the director until the swap publishes.
		yield.Fire(yield.PointWait)
		runtime.Gosched()
	}
}

// unpin releases the pin on s that pin took.
func (h *Handle[T]) unpin(s *slot[T]) { s.pins[h.stripe].V.Add(-1) }

func (h *Handle[T]) use(s *slot[T]) relax.Handle[T] {
	if h.cur != s {
		if h.inner != nil {
			h.inner.Flush()
		}
		h.inner = s.b.NewHandle()
		h.cur = s
	}
	return h.inner
}

// Push adds v to the active backend.
func (h *Handle[T]) Push(v T) {
	s := h.pin()
	h.use(s).Push(v)
	h.unpin(s)
}

// PushBatch adds the values of vs to the active backend under one slot
// pin, through the backend handle's PushBatch: what a loop of Push over vs
// means, with one pin instead of len(vs).
func (h *Handle[T]) PushBatch(vs []T) {
	s := h.pin()
	h.use(s).PushBatch(vs)
	h.unpin(s)
}

// Pop removes a value from the active backend; ok is false if it was
// observed empty.
func (h *Handle[T]) Pop() (v T, ok bool) {
	s := h.pin()
	v, ok = h.use(s).Pop()
	h.unpin(s)
	return v, ok
}

// Flush publishes the handle's pending counters.
func (h *Handle[T]) Flush() {
	if h.inner != nil {
		h.inner.Flush()
	}
}
