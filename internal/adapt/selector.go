package adapt

import (
	"fmt"
	"math"
	"sync"
	"time"

	"stack2d/internal/core"
)

// This file is the backend-selection half of the adaptation layer: where
// the Controller steers one structure's geometry, the Selector chooses
// *which* structure should be live, driving an engine.Switcher through
// the BackendTarget interface. The two compose — a Selector can hold the
// 2D backend active while a Controller retunes its window — but each is
// useful alone.

// BackendTarget is what the Selector steers: a hot-swappable engine
// exposing its registered catalogue, the per-backend semantics budgets,
// and the same aggregated counters every other adaptation surface reads.
// *engine.Switcher satisfies it for any element type. (Declared here, in
// the policy layer, so engine does not import adapt — the same direction
// as Reconfigurable and core.)
type BackendTarget interface {
	ActiveBackend() string
	Backends() []string
	BackendKBound(name string) (int64, bool)
	SwapBackend(name, reason string) error
	StatsSnapshot() core.OpStats
}

// Swap reasons the Selector emits; they flow verbatim into
// engine.SwapRecord, the KindBackendSwap trace events and the
// cmd/adapttune CSV.
const (
	// ReasonKBudgetZero: the semantics budget dropped to zero — only an
	// exact structure may serve, whatever the performance cost.
	ReasonKBudgetZero = "k-budget-zero"
	// ReasonKBudgetExceeded: the active backend's bound overshoots a
	// shrunken (but nonzero) budget; move to the best backend within it.
	ReasonKBudgetExceeded = "k-budget-exceeded"
	// ReasonSymmetricStorm: high contention on a push/pop-balanced mix —
	// elimination pairs operations off the hot path.
	ReasonSymmetricStorm = "symmetric-storm"
	// ReasonMixedLoad: high contention without the symmetry elimination
	// needs — the 2D structure's disjoint-access relaxation is the tool.
	ReasonMixedLoad = "mixed-load"
)

// SelectorPolicy configures a Selector. Zero fields default at NewSelector.
// A Selector's other thresholds are fixed: a contention storm is HighCAS
// CAS failures per operation, symmetric when the push fraction is within
// SymmetryBand of one half; after a swap it holds for 2 ticks so the
// signals resettle on the new backend; and a tick with fewer than 128
// operations only enforces the budget.
type SelectorPolicy struct {
	// KBudget is the initial semantics ceiling: the Selector never
	// activates a backend whose KBound exceeds it, and evicts the active
	// backend when the budget shrinks below its bound (checked before
	// every other rule, even on idle ticks, so budget enforcement is
	// deterministic). Zero or negative means unconstrained — a zero
	// *budget* (strict backends only) is imposed at runtime with
	// SetKBudget(0), the usual shape of a mid-run tolerance collapse.
	KBudget int64
	// Tick is the sampling interval of the background loop. Default 10ms.
	Tick time.Duration
}

func (p SelectorPolicy) withDefaults() SelectorPolicy {
	if p.KBudget <= 0 {
		p.KBudget = -1
	}
	if p.Tick == 0 {
		p.Tick = 10 * time.Millisecond
	}
	return p
}

// Validate reports whether the (defaulted) policy is coherent.
func (p SelectorPolicy) Validate() error {
	switch {
	case p.Tick <= 0:
		return fmt.Errorf("adapt: Tick must be positive, got %v", p.Tick)
	}
	return nil
}

// SelectorRecord is one row of the Selector's time series.
type SelectorRecord struct {
	Tick    int
	Elapsed time.Duration

	Ops        uint64
	Throughput float64
	CASPerOp   float64
	// PushFrac is pushes over completed operations (the symmetry signal).
	PushFrac float64

	// Action is "swap", "hold", "cooldown", "idle" or "error:...".
	Action string
	// Reason is the swap trigger (one of the Reason constants) when
	// Action is "swap", empty otherwise.
	Reason string
	// Backend is the active backend after the decision; K its bound.
	Backend string
	K       int64
}

// Selector drives a BackendTarget's active backend from its observed
// signals. Create with NewSelector; run with Start/Stop or call Step
// manually for deterministic control.
type Selector struct {
	target BackendTarget
	pol    SelectorPolicy

	mu       sync.Mutex
	kbudget  int64
	cooldown int
	prev     core.OpStats
	hist     []SelectorRecord
	loop
}

// NewSelector builds a selector for target; the policy is defaulted, then
// validated. The target keeps its current backend until the first
// decision says otherwise.
func NewSelector(target BackendTarget, pol SelectorPolicy) (*Selector, error) {
	pol = pol.withDefaults()
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	s := &Selector{
		target:  target,
		pol:     pol,
		kbudget: pol.KBudget,
		prev:    target.StatsSnapshot(),
	}
	s.loop = loop{tick: pol.Tick, step: func(d time.Duration) { s.Step(d) }}
	return s, nil
}

// Policy returns the defaulted policy the selector runs.
func (s *Selector) Policy() SelectorPolicy { return s.pol }

// KBudget returns the current semantics ceiling.
func (s *Selector) KBudget() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.kbudget
}

// SetKBudget changes the semantics ceiling live; the next Step enforces
// it (before any performance rule, bypassing cooldown and the idle
// floor). This is the hook a caller pulls when the application's
// tolerance for reordering collapses mid-run.
func (s *Selector) SetKBudget(k int64) {
	s.mu.Lock()
	s.kbudget = k
	s.mu.Unlock()
}

// Step performs one selection decision over an interval of the given
// length and appends (and returns) its record.
func (s *Selector) Step(elapsed time.Duration) SelectorRecord {
	s.mu.Lock()
	defer s.mu.Unlock()

	snap := s.target.StatsSnapshot()
	d := snap.Sub(s.prev)
	s.prev = snap

	ops := d.Ops()
	rec := SelectorRecord{Tick: len(s.hist), Elapsed: elapsed, Ops: ops}
	if elapsed > 0 {
		rec.Throughput = float64(ops) / elapsed.Seconds()
	}
	if ops > 0 {
		rec.CASPerOp = float64(d.CASFailures) / float64(ops)
		if completed := d.Pushes + d.Pops; completed > 0 {
			rec.PushFrac = float64(d.Pushes) / float64(completed)
		}
	}

	rec.Action, rec.Reason = s.decide(rec)

	rec.Backend = s.target.ActiveBackend()
	if k, ok := s.target.BackendKBound(rec.Backend); ok {
		rec.K = k
	}
	s.hist = append(s.hist, rec)
	return rec
}

// decide applies the selection rules; s.mu held. Budget enforcement runs
// first and unconditionally — an over-budget backend is evicted even on
// an idle or cooling-down tick — then the performance rules.
func (s *Selector) decide(rec SelectorRecord) (action, reason string) {
	active := s.target.ActiveBackend()
	activeK, _ := s.target.BackendKBound(active)

	if s.kbudget >= 0 && activeK > s.kbudget {
		reason = ReasonKBudgetExceeded
		if s.kbudget == 0 {
			reason = ReasonKBudgetZero
		}
		if name, ok := s.bestWithin(s.kbudget); ok {
			return s.swap(name, reason)
		}
		// Nothing registered fits the budget; hold rather than thrash.
		return "hold", ""
	}

	if rec.Ops < defaultMinOpsPerTick {
		return "idle", ""
	}
	if s.cooldown > 0 {
		s.cooldown--
		return "cooldown", ""
	}

	if rec.CASPerOp >= HighCAS {
		if math.Abs(rec.PushFrac-0.5) <= SymmetryBand {
			// A symmetric storm: elimination pairs the operations off the
			// central structure. Only if it fits the budget.
			if name, ok := s.fits("elimination"); ok && name != active {
				return s.swap(name, ReasonSymmetricStorm)
			}
		}
		// Contention without symmetry (or no elimination registered): the
		// 2D structure spreads the load across sub-stacks.
		if name, ok := s.fits("2D-stack"); ok && name != active {
			return s.swap(name, ReasonMixedLoad)
		}
	}
	return "hold", ""
}

// fits reports whether the named backend is registered and within the
// budget; s.mu held.
func (s *Selector) fits(name string) (string, bool) {
	k, ok := s.target.BackendKBound(name)
	if !ok {
		return "", false
	}
	if s.kbudget >= 0 && k > s.kbudget {
		return "", false
	}
	return name, true
}

// bestWithin picks the registered backend with the largest bound not
// exceeding the budget (the least semantics given up); s.mu held.
func (s *Selector) bestWithin(budget int64) (string, bool) {
	best, bestK, found := "", int64(-1), false
	for _, name := range s.target.Backends() {
		k, ok := s.target.BackendKBound(name)
		if !ok || k > budget {
			continue
		}
		if !found || k > bestK {
			best, bestK, found = name, k, true
		}
	}
	return best, found
}

// swap performs the move and arms the cooldown; s.mu held.
func (s *Selector) swap(name, reason string) (string, string) {
	if err := s.target.SwapBackend(name, reason); err != nil {
		return "error:" + err.Error(), reason
	}
	s.cooldown = defaultCooldown
	return "swap", reason
}

// History returns a copy of the selection records accumulated so far.
func (s *Selector) History() []SelectorRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SelectorRecord, len(s.hist))
	copy(out, s.hist)
	return out
}
