// Package harness drives the paper's experimental methodology (Section 4):
// P workers issue Push/Pop uniformly at random with no think time against a
// prefilled stack (32,768 items in the paper) for a fixed duration;
// throughput is operations per second, quality is the mean error distance
// from LIFO measured by the internal/quality oracle; every point is the
// average of several repeats.
//
// The harness abstracts each algorithm behind a Factory that builds fresh
// instances per run and per-goroutine Workers (handles), so the same runner
// reproduces Figure 1 (relaxation sweep), Figure 2 (concurrency sweep) and
// the ablation experiments. One worker loop generates every run: Run and
// RunQuality are one-phase runs of the phased loop behind RunPhased and its
// siblings, and only that loop picks a structure's quality oracle.
package harness

import (
	"stack2d/internal/core"
	"stack2d/internal/elimination"
	"stack2d/internal/ksegment"
	"stack2d/internal/multistack"
	"stack2d/internal/relax"
	"stack2d/internal/treiber"
)

// Worker is one goroutine's operation context on a stack under test.
type Worker interface {
	Push(v uint64)
	Pop() (v uint64, ok bool)
}

// Instance is one freshly built stack under test.
type Instance interface {
	// NewWorker returns a per-goroutine handle; safe to call concurrently.
	NewWorker() Worker
	// Len is the approximate population, used for sanity checks.
	Len() int
}

// Factory builds fresh instances of one algorithm configuration.
type Factory struct {
	// Name is the paper's series label, e.g. "2D-stack" or "k-robin".
	Name string
	// K is the configured relaxation bound, or -1 when unbounded/not
	// applicable (random, random-c2, elimination).
	K int64
	// Order is the discipline quality runs score against; it picks the
	// oracle and when a push is recorded in it (see runPhased). The zero
	// value, relax.OrderLIFO, serves every stack-shaped design, the pools
	// included; the queue factories set relax.OrderFIFO.
	Order relax.Ordering
	// New builds a fresh, empty instance.
	New func() Instance
}

// --- adapters -------------------------------------------------------------

type twoDInstance struct{ s *core.Stack[uint64] }

func (i twoDInstance) NewWorker() Worker { return i.s.NewHandle() }
func (i twoDInstance) Len() int          { return i.s.Len() }

// NewTwoDFactory wraps a 2D-Stack configuration.
func NewTwoDFactory(cfg core.Config) Factory {
	return Factory{
		Name: relax.TwoDStack.String(),
		K:    cfg.K(),
		New:  func() Instance { return twoDInstance{core.MustNew[uint64](cfg)} },
	}
}

type treiberInstance struct{ s *treiber.Stack[uint64] }

func (i treiberInstance) NewWorker() Worker { return i.s }
func (i treiberInstance) Len() int          { return i.s.Len() }

// NewTreiberFactory wraps the strict Treiber baseline (k = 0).
func NewTreiberFactory() Factory {
	return Factory{
		Name: relax.TreiberStack.String(),
		K:    0,
		New:  func() Instance { return treiberInstance{treiber.New[uint64]()} },
	}
}

type elimInstance struct{ s *elimination.Stack[uint64] }

func (i elimInstance) NewWorker() Worker { return i.s.NewHandle() }
func (i elimInstance) Len() int          { return i.s.Len() }

// NewEliminationFactory wraps the elimination back-off stack (strict
// semantics, k = 0; the K field is 0 but the factory is not used in the
// relaxation sweep).
func NewEliminationFactory(cfg elimination.Config) Factory {
	return Factory{
		Name: relax.EliminationStack.String(),
		K:    0,
		New:  func() Instance { return elimInstance{elimination.MustNew[uint64](cfg)} },
	}
}

type ksegInstance struct{ s *ksegment.Stack[uint64] }

func (i ksegInstance) NewWorker() Worker { return i.s.NewHandle() }
func (i ksegInstance) Len() int          { return i.s.Len() }

// NewKSegmentFactory wraps a k-segment configuration.
func NewKSegmentFactory(cfg ksegment.Config) Factory {
	return Factory{
		Name: relax.KSegment.String(),
		K:    cfg.K(),
		New:  func() Instance { return ksegInstance{ksegment.MustNew[uint64](cfg)} },
	}
}

type multiInstance struct{ s *multistack.Stack[uint64] }

func (i multiInstance) NewWorker() Worker { return i.s.NewHandle() }
func (i multiInstance) Len() int          { return i.s.Len() }

// NewMultiFactory wraps a distributed multi-stack configuration. K is the
// k-robin estimate for RoundRobin at p threads and -1 (unbounded) for the
// random policies.
func NewMultiFactory(cfg multistack.Config, p int) Factory {
	k := int64(-1)
	if cfg.Policy == multistack.RoundRobin {
		k = relax.KRobinBound(cfg.Width, p)
	}
	return Factory{
		Name: cfg.Policy.String(),
		K:    k,
		New:  func() Instance { return multiInstance{multistack.MustNew[uint64](cfg)} },
	}
}

// --- figure configurations -------------------------------------------------

// Figure1Factory returns the algorithm configured for a target relaxation
// bound k at p threads, per the mappings in internal/relax. Only k-bounded
// algorithms are legal here.
func Figure1Factory(alg relax.Algorithm, k int64, p int) Factory {
	switch alg {
	case relax.TwoDStack:
		return NewTwoDFactory(relax.TwoDConfigForK(k, p))
	case relax.KSegment:
		return NewKSegmentFactory(relax.KSegmentConfigForK(k))
	case relax.KRobin:
		return NewMultiFactory(relax.KRobinConfigForK(k, p), p)
	case relax.TreiberStack:
		return NewTreiberFactory()
	default:
		panic("harness: " + alg.String() + " is not k-bounded; not part of Figure 1")
	}
}

// Figure2Factory returns the algorithm configured for high throughput at p
// threads, reproducing the paper's Figure 2 setup: 2D-stack at width 4P,
// k-robin shrinking width with P to hold its bound, fixed structures for
// the random policies and k-segment, and the strict baselines.
func Figure2Factory(alg relax.Algorithm, p int) Factory {
	switch alg {
	case relax.TwoDStack:
		return NewTwoDFactory(core.DefaultConfig(p))
	case relax.KRobin:
		return NewMultiFactory(relax.KRobinConfigForK(relax.Figure2K, p), p)
	case relax.KSegment:
		return NewKSegmentFactory(ksegment.Config{SegmentSize: relax.Figure2FixedWidth})
	case relax.RandomStack:
		return NewMultiFactory(multistack.Config{Width: relax.Figure2FixedWidth, Policy: multistack.Random}, p)
	case relax.RandomC2Stack:
		return NewMultiFactory(multistack.Config{Width: relax.Figure2FixedWidth, Policy: multistack.RandomC2}, p)
	case relax.EliminationStack:
		return NewEliminationFactory(elimination.DefaultConfig(p))
	case relax.TreiberStack:
		return NewTreiberFactory()
	default:
		panic("harness: unknown algorithm " + alg.String())
	}
}
