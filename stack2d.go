package stack2d

import (
	"sync"

	"stack2d/internal/core"
	"stack2d/internal/treiber"
)

// Interface is the minimal concurrent-stack contract shared by every
// implementation in this module. Pop's second result is false when the
// stack was observed empty (for relaxed implementations: empty within the
// permitted k slack).
type Interface[T any] interface {
	Push(v T)
	Pop() (v T, ok bool)
}

// Stack is a lock-free 2D-Stack. Create one with New; it must not be
// copied. All methods are safe for concurrent use.
type Stack[T any] struct {
	inner *core.Stack[T]
	pool  sync.Pool // of *core.Handle[T], for the handle-free convenience API
	// opBuffer is WithOpBuffer's threshold; NewHandle arms it on every
	// handle. Pooled handles (Stack.Push/Pop) always stay unbuffered.
	opBuffer int
}

// New builds a 2D-Stack configured by the supplied options; without options
// it is tuned for runtime.GOMAXPROCS(0) threads (width 4P, depth 64 — the
// paper's high-throughput configuration). Invalid combinations panic, since
// they are programming errors; use NewWithConfig to handle errors.
func New[T any](opts ...Option) *Stack[T] {
	b := applyOptions(opts)
	s, err := NewWithConfig[T](resolveConfig(b))
	if err != nil {
		panic(err)
	}
	b.applySettings(s.inner, &s.opBuffer)
	return s
}

// Config re-exports the window tuning parameters the 2D-Stack and the
// 2D-Queue share: Width sub-structures, a window of height Depth (one per
// end for the queue) moved by Shift when exhausted, and RandomHops random
// probes before round-robin search. See the package documentation for
// their meaning and the fields' constraints.
type Config = core.Config

// NewWithConfig builds a 2D-Stack from an explicit configuration,
// returning an error on invalid parameters.
func NewWithConfig[T any](cfg Config) (*Stack[T], error) {
	inner, err := core.New[T](cfg)
	if err != nil {
		return nil, err
	}
	s := &Stack[T]{inner: inner}
	s.pool.New = func() any { return inner.NewHandle() }
	return s, nil
}

// Handle is a per-goroutine operation context. A handle is not safe for
// concurrent use; the Stack is, across handles. Using one handle per
// goroutine is the fast path — it preserves the locality dimension of the
// design. On a stack built WithOpBuffer the handle additionally batches
// its operations for combined publication (see WithOpBuffer and Flush).
type Handle[T any] struct {
	h        *core.Handle[T]
	buffered bool
}

// NewHandle returns a fresh handle anchored at a random sub-stack; on a
// stack built WithOpBuffer the handle comes armed with its op buffer.
func (s *Stack[T]) NewHandle() *Handle[T] {
	h := &Handle[T]{h: s.inner.NewHandle()}
	if s.opBuffer > 0 {
		h.h.SetOpBuffer(s.opBuffer)
		h.buffered = true
	}
	return h
}

// Push adds v to the stack (through the op buffer when armed).
func (h *Handle[T]) Push(v T) {
	if h.buffered {
		h.h.BufferedPush(v)
		return
	}
	h.h.Push(v)
}

// Pop removes and returns a value within the relaxation window (through
// the op buffer when armed); ok is false when the stack is empty.
func (h *Handle[T]) Pop() (v T, ok bool) {
	if h.buffered {
		return h.h.BufferedPop()
	}
	return h.h.Pop()
}

// Flush publishes the handle's buffered pushes immediately; a no-op on an
// unbuffered handle. Call before quiescing, before Stack.Drain, or before
// abandoning the handle.
func (h *Handle[T]) Flush() {
	if h.buffered {
		h.h.FlushOps()
	}
}

// TryPop runs Pop's window search but never moves the window; ok=false
// means "nothing found in the current window", which is cheaper but weaker
// than Pop's empty guarantee. A buffered handle first serves its own items
// as Pop does — the newest pending push, then the undelivered prefetch —
// and searches only when it holds none; TryPop never refills the prefetch.
func (h *Handle[T]) TryPop() (v T, ok bool) {
	if h.buffered && h.h.Buffering() {
		if pending, undelivered := h.h.BufferedCounts(); pending+undelivered > 0 {
			return h.h.BufferedPop()
		}
	}
	return h.h.TryPop()
}

// PushBatch pushes all values with as few descriptor CASes as the window
// allows (vs[len-1] ends up topmost, as a loop of Push calls would leave
// it). Batching amortises sub-stack search and coherence traffic without
// weakening the Theorem 1 bound. On a buffered handle any pending buffered
// pushes are published first, preserving program order.
func (h *Handle[T]) PushBatch(vs []T) {
	if h.buffered {
		h.h.FlushOps()
	}
	h.h.PushBatch(vs)
}

// PopBatch removes up to max values, topmost-first; it returns fewer when
// the stack runs out of items. On a buffered handle the values flow
// through the op buffer, so its residents are served first.
func (h *Handle[T]) PopBatch(max int) []T {
	if !h.buffered {
		return h.h.PopBatch(max)
	}
	out := make([]T, 0, max)
	for len(out) < max {
		v, ok := h.h.BufferedPop()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

var _ Interface[int] = (*Handle[int])(nil)

// Push adds v using a pooled handle. Prefer per-goroutine handles
// (NewHandle) on hot paths: the pool round-trip costs a few tens of
// nanoseconds and shuffles locality anchors between goroutines.
func (s *Stack[T]) Push(v T) {
	h := s.pool.Get().(*core.Handle[T])
	h.Push(v)
	s.pool.Put(h)
}

// Pop removes a value using a pooled handle; see Push for the trade-off.
func (s *Stack[T]) Pop() (v T, ok bool) {
	h := s.pool.Get().(*core.Handle[T])
	v, ok = h.Pop()
	s.pool.Put(h)
	return v, ok
}

var _ Interface[int] = (*Stack[int])(nil)

// SetObserver installs (or, with nil, removes) the stack's structural
// observer at runtime; see WithObserver for the construction-time form and
// StructObserver for the contract.
func (s *Stack[T]) SetObserver(o StructObserver) { s.inner.SetObserver(o) }

// Len returns the total number of stored items; exact when quiescent,
// approximate under concurrency.
func (s *Stack[T]) Len() int { return s.inner.Len() }

// Empty reports whether every sub-stack was observed empty.
func (s *Stack[T]) Empty() bool { return s.inner.Empty() }

// K returns the stack's k-out-of-order relaxation bound, Theorem 1's
// k = (2·depth + shift)·(width − 1) with the constant corrected (the
// paper's transcription swaps depth and shift, which sequential
// counterexamples refute for shift < depth; the two coincide at
// shift = depth, the setting of every configuration this package
// derives). The bound is exact for every legal shift — certified by
// exhaustive small-geometry exploration (internal/seqspec) and
// property-tested beyond — and concurrent executions add at most one
// position of measurement slack per in-flight operation. See DESIGN.md §2.
func (s *Stack[T]) K() int64 { return s.inner.Config().K() }

// Config returns the configuration the stack was built with.
func (s *Stack[T]) Config() Config { return s.inner.Config() }

// Drain removes and returns all items; intended for teardown, not for use
// concurrent with other operations. Buffered handles (WithOpBuffer) must
// Flush first — Drain only sees published items.
func (s *Stack[T]) Drain() []T { return s.inner.Drain() }

// Strict is a strict (k = 0) lock-free LIFO stack — the classic Treiber
// stack — provided for callers that need exact semantics or a baseline to
// compare relaxation against. The zero value is ready to use.
type Strict[T any] struct {
	inner treiber.Stack[T]
}

// NewStrict returns an empty strict stack.
func NewStrict[T any]() *Strict[T] { return &Strict[T]{} }

// Push adds v to the top of the stack.
func (s *Strict[T]) Push(v T) { s.inner.Push(v) }

// Pop removes and returns the exact top value; ok is false on empty.
func (s *Strict[T]) Pop() (v T, ok bool) { return s.inner.Pop() }

// Len returns the approximate number of items.
func (s *Strict[T]) Len() int { return s.inner.Len() }

var _ Interface[int] = (*Strict[int])(nil)
