package stack2d

import (
	"runtime"

	"stack2d/internal/adapt"
	"stack2d/internal/core"
	"stack2d/internal/relax"
)

// Option configures a structure built by New, NewQueue, NewAdaptive,
// NewAdaptiveQueue or NewEngine. The stack and the queue share one
// geometry (Config) and one option set; a constructor reads the options
// it can use and ignores the rest, and each option's documentation names
// the constructors that read it.
type Option func(*builder)

type builder struct {
	p    int // expected threads (for defaults and WithRelaxation)
	k    int64
	kSet bool

	// Explicit structural overrides; resolveConfig applies them over the
	// derived base configuration.
	width   int
	depth   int64
	shift   int64
	hops    int
	hopsSet bool

	// policy is WithAdaptive's controller policy (DefaultAdaptivePolicy
	// when absent); read by NewAdaptive and NewAdaptiveQueue.
	policy AdaptivePolicy

	selector *adapt.SelectorPolicy // set by WithBackendSelection; consumed by NewEngine

	// The structure settings that are not Config fields, installed on the
	// freshly built window structure by applySettings: the observer
	// (WithObserver), the placement model (WithPlacement) and the op-buffer
	// threshold every handle is armed with (WithOpBuffer, 0 = off).
	observer     StructObserver
	placePolicy  core.PlacementPolicy
	placeSockets int
	opBuffer     int
}

// applyOptions runs the option list over a fresh builder.
func applyOptions(opts []Option) builder {
	b := builder{p: runtime.GOMAXPROCS(0), policy: DefaultAdaptivePolicy()}
	for _, opt := range opts {
		opt(&b)
	}
	return b
}

// resolveConfig turns a populated builder into a concrete configuration:
// the paper's defaults for the expected threads (or, under WithRelaxation,
// the geometry derived from the budget), then the explicit structural
// overrides field by field. A lone depth override drags shift down with it
// (shift <= depth must hold); a lone shift override lifts depth up to
// match, since the intent — a larger window step — is unambiguous and
// shift = depth is the paper's maximum-locality setting. When both are
// given they are taken verbatim, so contradictory pairs still fail
// validation.
func resolveConfig(b builder) Config {
	cfg := core.DefaultConfig(b.p)
	if b.kSet {
		cfg = relax.TwoDConfigForK(b.k, b.p)
	}
	if b.width != 0 {
		cfg.Width = b.width
	}
	if b.depth != 0 {
		cfg.Depth = b.depth
		if b.shift == 0 && cfg.Shift > cfg.Depth {
			cfg.Shift = cfg.Depth
		}
	}
	if b.shift != 0 {
		cfg.Shift = b.shift
		if b.depth == 0 && cfg.Depth < cfg.Shift {
			cfg.Depth = cfg.Shift
		}
	}
	if b.hopsSet {
		cfg.RandomHops = b.hops
	}
	return cfg
}

// settable is the construction surface of the window shell that the
// stack (core.Stack) and the queue (twodqueue.Queue) share.
type settable interface {
	SetObserver(StructObserver)
	SetPlacement(PlacementPolicy, int)
}

// applySettings installs the settings that are not Config fields on a
// freshly built window structure — the observer first, so the
// construction placement event reaches it, then placement — and stores
// the op-buffer threshold that the wrapper's NewHandle arms every handle
// with. It is the one construction step New, NewQueue, NewAdaptive and
// NewAdaptiveQueue share.
func (b builder) applySettings(w settable, opBuffer *int) {
	if b.observer != nil {
		w.SetObserver(b.observer)
	}
	if b.placePolicy != nil {
		w.SetPlacement(b.placePolicy, b.placeSockets)
	}
	*opBuffer = b.opBuffer
}

// WithExpectedThreads declares the expected number of concurrent
// goroutines P. The default structure follows the paper's optimum:
// width = 4P, depth = shift = 64. Defaults to runtime.GOMAXPROCS(0).
// Read by every constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue
// and NewEngine.
func WithExpectedThreads(p int) Option {
	return func(b *builder) { b.p = p }
}

// WithRelaxation requests a target k-out-of-order budget; the structure
// (width first, then depth — horizontal before vertical, as in the paper)
// is derived so that the realised bound K() never exceeds k, for the
// stack and the queue alike, since both share the Theorem-1 constant.
// Combine with WithExpectedThreads for the width cap. Read by every
// constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue and
// NewEngine.
func WithRelaxation(k int64) Option {
	return func(b *builder) {
		b.k = k
		b.kSet = true
	}
}

// WithWidth sets the number of sub-stacks (sub-queues) explicitly. Read by
// every constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue and
// NewEngine.
func WithWidth(width int) Option {
	return func(b *builder) { b.width = width }
}

// WithDepth sets the window height (per end, for the queue) explicitly,
// and clamps shift down to it when shift is not also set. Read by every
// constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue and NewEngine.
func WithDepth(depth int64) Option {
	return func(b *builder) { b.depth = depth }
}

// WithShift sets the window step explicitly, and lifts depth up to it when
// depth is not also set, keeping 1 <= shift <= depth satisfiable. Read by
// every constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue and
// NewEngine.
func WithShift(shift int64) Option {
	return func(b *builder) { b.shift = shift }
}

// WithRandomHops sets how many random probes precede round-robin search.
// Read by every constructor: New, NewQueue, NewAdaptive, NewAdaptiveQueue
// and NewEngine.
func WithRandomHops(n int) Option {
	return func(b *builder) {
		b.hops = n
		b.hopsSet = true
	}
}

// WithAdaptive supplies the feedback-controller policy for a self-tuning
// stack or queue; the structural options then only pick the *initial*
// geometry. Read by NewAdaptive and NewAdaptiveQueue only: New, NewQueue
// and NewEngine ignore it, since a static structure has no controller to
// configure.
func WithAdaptive(policy AdaptivePolicy) Option {
	return func(b *builder) { b.policy = policy }
}

// WithBackendSelection supplies the backend-selector policy for a
// hot-swappable Engine and starts the selector with it; the structural
// options then configure the initial 2D backend. Read by NewEngine only:
// the other constructors ignore it, since a single structure has no
// alternative backends to select among.
func WithBackendSelection(policy SelectorPolicy) Option {
	return func(b *builder) { b.selector = &policy }
}

// StructObserver receives a window structure's transition events —
// geometry reconfigurations, warm shrink handoffs, placement re-homes
// (StructEvent). Implementations must be fast and must not call back into
// the structure; internal/obs's ring tracer is the intended consumer. The
// observer is never read on the operation hot path, so instrumentation
// costs nothing per operation.
type StructObserver = core.Observer

// StructEventKind enumerates the structural transitions a StructObserver
// distinguishes (alias of core.StructEventKind).
type StructEventKind = core.StructEventKind

// StructEvent is one structural transition report; see the field docs on
// the underlying type for the geometry, attribution and displacement
// payload each event kind carries.
type StructEvent = core.StructEvent

// Event kinds a StructObserver distinguishes; see core.StructEventKind.
const (
	StructReconfig      = core.StructReconfig
	StructShrinkHandoff = core.StructShrinkHandoff
	StructPlacement     = core.StructPlacement
)

// WithObserver installs a structural observer on the freshly built stack
// or queue, so reconfigurations are observable from the first one;
// equivalent to calling SetObserver immediately after construction. The
// stack and the queue share the event vocabulary (StructEvent), so one
// observer implementation serves both. Read by New, NewQueue, NewAdaptive
// and NewAdaptiveQueue; NewEngine ignores it.
func WithObserver(o StructObserver) Option {
	return func(b *builder) { b.observer = o }
}

// WithOpBuffer arms per-handle operation buffering with a combined-
// publication threshold of n operations: each handle batches its pushes
// (enqueues) locally and publishes them as one combined batch when n are
// pending, and refills a local pop (dequeue) prefetch n values at a time
// — the raw-speed campaign's fast path (DESIGN.md §11). Buffered
// operations take effect at their publish/serve point rather than at the
// call, relaxing order by at most 3·P·n extra positions across P handles;
// call Handle.Flush (QueueHandle.Flush) before quiescing or draining.
// A queue handle never serves its own pending enqueues back (that would
// maximise FIFO displacement); a dequeue finding the structure empty
// flushes them and retries instead. n <= 0 leaves buffering off (the
// default). The pooled convenience API (Stack.Push/Pop) never buffers — a
// pooled handle's residents would outlive the call that created them.
// Read by New, NewQueue, NewAdaptive and NewAdaptiveQueue; NewEngine
// ignores it.
func WithOpBuffer(n int) Option {
	return func(b *builder) { b.opBuffer = n }
}
