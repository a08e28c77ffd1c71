package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"weak"
)

// Latency sampling. One operation in LatencySampleInterval is timed
// end-to-end (pin to unpin) and recorded into a log2-bucketed histogram in
// the handle's OpStats. The buckets are monotone counters like every other
// field, so they flush through the same sharedCounters mirror, aggregate
// through the same prune-retired Registry, and subtract cleanly between
// StatsSnapshots — which is what lets internal/adapt compute interval P50/
// P99 estimates at runtime without the harness's offline sampler.
const (
	// LatencySampleInterval is the sampling stride: 1 operation in this many
	// is timed. A power of two so the hot-path check is a mask test. At this
	// stride the amortised cost of the two clock reads is well under a
	// nanosecond per operation.
	LatencySampleInterval = 64

	// NumLatencyBuckets is the histogram size. Bucket i holds samples whose
	// duration in nanoseconds has bit-length i, i.e. [2^(i-1), 2^i) ns;
	// bucket 0 holds sub-nanosecond readings and the last bucket absorbs
	// everything from ~67 ms up (scheduler stalls included).
	NumLatencyBuckets = 28
)

// LatencyBucket maps a sampled duration to its histogram bucket.
func LatencyBucket(d time.Duration) int {
	ns := int64(d)
	if ns <= 0 {
		return 0
	}
	b := bits.Len64(uint64(ns))
	if b >= NumLatencyBuckets {
		b = NumLatencyBuckets - 1
	}
	return b
}

// latencyBucketBounds returns the duration range bucket i covers, used for
// within-bucket interpolation when estimating percentiles.
func latencyBucketBounds(i int) (lo, hi time.Duration) {
	if i <= 0 {
		return 0, 1
	}
	return time.Duration(int64(1) << (i - 1)), time.Duration(int64(1) << i)
}

// OpStats counts the work a Handle performed, supporting the step-
// complexity analysis the paper's full version develops: how many
// sub-stacks an operation inspects, how often CAS fails (contention), and
// how often the window has to move. Counters are handle-local and updated
// without atomics; read them from the owning goroutine only (or after it
// has quiesced). For cross-goroutine sampling use Registry.StatsSnapshot,
// which reads the periodically flushed atomic copies instead.
type OpStats struct {
	Pushes    uint64 // completed Push operations
	Pops      uint64 // Pop operations returning a value
	EmptyPops uint64 // Pop operations reporting empty

	Probes       uint64 // sub-stack validations performed (all phases)
	RandomHops   uint64 // exploratory random hops taken
	CASFailures  uint64 // descriptor CAS failures (contention events)
	WindowRaises uint64 // successful Global += shift CASes by this handle
	WindowLowers uint64 // successful Global -= shift CASes by this handle
	Restarts     uint64 // searches restarted due to an observed Global change

	// SocketCAS attributes the CAS failures to the socket the failing
	// handle was pinned to (Handle.Pin, or the creation-order heuristic) —
	// the per-socket contention-pressure signal the adaptive controller
	// uses to tell the placement policy which socket asked for a widening
	// (see PressureSocket and DESIGN.md §7). The entries sum to
	// CASFailures.
	SocketCAS [MaxPlacementSockets]uint64

	// Latency is the log2-bucketed histogram of sampled operation
	// latencies (1 operation in LatencySampleInterval is timed; see
	// LatencyBucket for the bucket layout). Estimate percentiles with
	// LatencyPercentile.
	Latency [NumLatencyBuckets]uint64
}

// LatencySamples returns how many operations were latency-sampled.
func (s OpStats) LatencySamples() uint64 {
	var n uint64
	for _, b := range s.Latency {
		n += b
	}
	return n
}

// NoLatencySample is the sentinel LatencyPercentile returns for an empty
// (all-zero) histogram. It is negative — no real sample can produce it —
// so consumers can distinguish "no data this interval" from a genuinely
// sub-nanosecond estimate, which the former zero return conflated with a
// bucket-0 reading. Gauges exported through internal/obs surface it as -1.
const NoLatencySample time.Duration = -1

// LatencyPercentile estimates the p-th percentile (0..100) of the sampled
// operation latency from the histogram, interpolating linearly within the
// winning bucket. It returns NoLatencySample when no samples were
// recorded; callers that gate on LatencySamples() > 0 (as the adaptive
// controller does) never see the sentinel. Log2 buckets bound the
// estimation error by a factor of two of the true sample value, which is
// far finer than the order-of-magnitude swings the latency-goal controller
// steers on.
func (s OpStats) LatencyPercentile(p float64) time.Duration {
	total := s.LatencySamples()
	if total == 0 {
		return NoLatencySample
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(total)
	var cum float64
	for i, b := range s.Latency {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next {
			lo, hi := latencyBucketBounds(i)
			frac := (rank - cum) / float64(b)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	_, hi := latencyBucketBounds(NumLatencyBuckets - 1)
	return hi
}

// Ops returns the total completed operations.
func (s OpStats) Ops() uint64 { return s.Pushes + s.Pops + s.EmptyPops }

// ProbesPerOp returns the mean number of sub-stack validations per
// operation — the empirical step count.
func (s OpStats) ProbesPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.Probes) / float64(ops)
}

// CASFailuresPerOp returns the mean number of failed descriptor CASes per
// operation — the contention signal the adaptive controller steers on.
func (s OpStats) CASFailuresPerOp() float64 {
	ops := s.Ops()
	if ops == 0 {
		return 0
	}
	return float64(s.CASFailures) / float64(ops)
}

// Add accumulates other into s (for aggregating per-worker stats).
func (s *OpStats) Add(other OpStats) {
	s.Pushes += other.Pushes
	s.Pops += other.Pops
	s.EmptyPops += other.EmptyPops
	s.Probes += other.Probes
	s.RandomHops += other.RandomHops
	s.CASFailures += other.CASFailures
	s.WindowRaises += other.WindowRaises
	s.WindowLowers += other.WindowLowers
	s.Restarts += other.Restarts
	for i := range s.SocketCAS {
		s.SocketCAS[i] += other.SocketCAS[i]
	}
	for i := range s.Latency {
		s.Latency[i] += other.Latency[i]
	}
}

// Sub returns s - other field-wise, saturating at zero, for computing
// per-interval deltas between two snapshots (saturation guards against a
// handle resetting its counters between samples).
func (s OpStats) Sub(other OpStats) OpStats {
	sat := func(a, b uint64) uint64 {
		if a < b {
			return 0
		}
		return a - b
	}
	out := OpStats{
		Pushes:       sat(s.Pushes, other.Pushes),
		Pops:         sat(s.Pops, other.Pops),
		EmptyPops:    sat(s.EmptyPops, other.EmptyPops),
		Probes:       sat(s.Probes, other.Probes),
		RandomHops:   sat(s.RandomHops, other.RandomHops),
		CASFailures:  sat(s.CASFailures, other.CASFailures),
		WindowRaises: sat(s.WindowRaises, other.WindowRaises),
		WindowLowers: sat(s.WindowLowers, other.WindowLowers),
		Restarts:     sat(s.Restarts, other.Restarts),
	}
	for i := range out.SocketCAS {
		out.SocketCAS[i] = sat(s.SocketCAS[i], other.SocketCAS[i])
	}
	for i := range out.Latency {
		out.Latency[i] = sat(s.Latency[i], other.Latency[i])
	}
	return out
}

// Counters is the handle side of a Registry: a handle's work counters and
// their periodic publication. The owner updates Count without atomics;
// every statsFlushInterval operations (MaybeFlush) or on demand
// (FlushStats) the counters are copied into the mirror the registry reads.
// WindowHandle embeds one, and so do internal/relax's counting adapter
// handles. Owner-goroutine only, like the handles embedding it.
type Counters struct {
	// Count is the handle's work counters, updated by Search, the
	// structures' visitors and the adapters without atomics (see OpStats;
	// Stats returns a copy).
	Count OpStats
	// sinceFlush counts operations since Count was last published.
	sinceFlush int
	// shared is the published, atomically readable copy of Count, wired by
	// Registry.Register. It is a separate allocation, held strongly by the
	// registry, so the final published counters and resident count
	// outlive the handle itself.
	shared *sharedCounters
}

// Stats returns a copy of the handle's counters. Owner-goroutine only.
func (c *Counters) Stats() OpStats { return c.Count }

// ResetStats zeroes the handle's counters (and their published copy).
// Owner-goroutine only. Samplers holding a previous StatsSnapshot baseline
// will see this as a shrinking total; OpStats.Sub saturates, so the
// affected interval reads as zero rather than garbage.
func (c *Counters) ResetStats() {
	c.Count = OpStats{}
	c.FlushStats()
}

// MaybeFlush counts one completed operation and publishes the counters
// every statsFlushInterval of them; the handle calls it after each
// operation, on the owner goroutine.
func (c *Counters) MaybeFlush() {
	c.sinceFlush++
	if c.sinceFlush >= statsFlushInterval {
		c.FlushStats()
	}
}

// FlushStats immediately publishes the handle's counters to the mirror its
// registry reads. Owner-goroutine only. Useful when a worker quiesces and a
// sampler should see its final totals at once.
func (c *Counters) FlushStats() {
	c.sinceFlush = 0
	c.shared.Store(c.Count)
}

// statsFlushInterval is how many operations a handle completes between
// publications of its counters to the shared (atomic) copy. Snapshots are
// therefore at most this many operations per handle stale — far below the
// noise floor of any control interval — while the hot path pays only a
// local counter increment per operation.
const statsFlushInterval = 64

// sharedCounters is the atomically readable mirror of a handle's OpStats.
// Single writer (the owning goroutine, via flush); any reader.
//
// Two memory disciplines protect the mirror. A seqlock generation (gen,
// incremented to odd before a flush writes the fields and back to even
// after) lets Load return a cross-field-consistent snapshot: every field is
// individually atomic, but without the generation a reader interleaving a
// flush could combine a new Pushes with an old Pops — a torn snapshot that
// trips ratio consumers (CASFailuresPerOp, latency percentiles) even though
// no data race exists. And the struct's size is padded up to a multiple of
// the cache line: mirrors are allocated back to back by the handle
// registries (one per handle, the flush target every statsFlushInterval
// ops), so a size that is not line-aligned would let two handles' flush
// lines overlap and turn every 64-op flush into cross-core invalidation
// traffic — false sharing on exactly the slots the audit exists to keep
// private. TestSharedCountersPadded pins the size. A flush stores only
// the fields that changed since the last one (Store), so a line whose
// counters did not move stays clean and shared with its readers.
//
// residents sits outside the seqlock: the handle's op-buffer resident
// count, stored by the owner after every buffer mutation (one store per
// buffered operation, on the mirror's last line) and read by
// Registry.BufferedItems and, once the handle is collected, by
// Registry.AbandonedItems.
type sharedCounters struct {
	gen                                  atomic.Uint64
	pushes, pops, emptyPops              atomic.Uint64
	probes, randomHops, casFailures      atomic.Uint64
	windowRaises, windowLowers, restarts atomic.Uint64
	socketCAS                            [MaxPlacementSockets]atomic.Uint64
	latency                              [NumLatencyBuckets]atomic.Uint64
	residents                            atomic.Int64
	_                                    [8]byte // pad to a cache-line multiple (384 B)
}

// Store publishes st, writing only the fields whose published value
// differs: the owner is the mirror's only writer, so a load of its own
// field is exact, and between two flushes most of the 45 fields (idle
// socket slots, latency buckets no sample fell into, counters of paths
// not taken) have not moved. A flush then makes a handful of fenced
// stores instead of one per field.
func (c *sharedCounters) Store(st OpStats) {
	c.gen.Add(1) // odd: flush in progress
	storeChanged(&c.pushes, st.Pushes)
	storeChanged(&c.pops, st.Pops)
	storeChanged(&c.emptyPops, st.EmptyPops)
	storeChanged(&c.probes, st.Probes)
	storeChanged(&c.randomHops, st.RandomHops)
	storeChanged(&c.casFailures, st.CASFailures)
	storeChanged(&c.windowRaises, st.WindowRaises)
	storeChanged(&c.windowLowers, st.WindowLowers)
	storeChanged(&c.restarts, st.Restarts)
	for i := range c.socketCAS {
		storeChanged(&c.socketCAS[i], st.SocketCAS[i])
	}
	for i := range c.latency {
		storeChanged(&c.latency[i], st.Latency[i])
	}
	c.gen.Add(1) // even: consistent
}

// storeChanged stores v into a single-writer field unless it already
// holds v.
func storeChanged(a *atomic.Uint64, v uint64) {
	if a.Load() != v {
		a.Store(v)
	}
}

func (c *sharedCounters) Load() OpStats {
	for {
		g := c.gen.Load()
		if g&1 != 0 {
			// A flush is mid-write; it is a handful of plain stores, so
			// spinning to its end is cheaper than yielding.
			continue
		}
		out := OpStats{
			Pushes:       c.pushes.Load(),
			Pops:         c.pops.Load(),
			EmptyPops:    c.emptyPops.Load(),
			Probes:       c.probes.Load(),
			RandomHops:   c.randomHops.Load(),
			CASFailures:  c.casFailures.Load(),
			WindowRaises: c.windowRaises.Load(),
			WindowLowers: c.windowLowers.Load(),
			Restarts:     c.restarts.Load(),
		}
		for i := range out.SocketCAS {
			out.SocketCAS[i] = c.socketCAS[i].Load()
		}
		for i := range out.Latency {
			out.Latency[i] = c.latency[i].Load()
		}
		if c.gen.Load() == g {
			return out
		}
	}
}

// Registry is the weak-handle registry: it publishes the work of every
// handle whose Counters it registered, live or collected. Each entry holds
// its handle (of type H) weakly — so an abandoned handle (one dropped from
// the convenience API's sync.Pool on a GC cycle, or an engine adapter
// handle left behind by a swap) is collectable — but the handle's counter
// mirror strongly: a collected handle's final counters and resident count
// stay readable until a later registration prunes the entry and folds them
// into retired and abandoned. Every read is therefore exact with no
// dependence on GC timing. Window embeds one for its handles (and adds the
// epoch quiescence wait over its entries); so do internal/relax's counting
// adapters. A Registry must not be copied.
//
// Registration prunes only once the registry has doubled since its last
// prune (pruneAt), so a workload that keeps creating handles pays amortised
// O(1) per registration instead of a rescan of every entry: a prune that
// keeps L live entries is next due after at least L more registrations.
type Registry[H any] struct {
	// hMu guards the entries and the totals below.
	hMu     sync.Mutex
	handles []registryEntry[H]
	// pruneAt is the entry count at which registration next prunes: twice
	// the live entries the last prune kept.
	pruneAt int
	// retired accumulates the last published counters of pruned handles,
	// so StatsSnapshot never loses completed work; abandoned accumulates
	// their op-buffer residents, the items lost with them.
	retired   OpStats
	abandoned int64
}

// registryEntry is one registry slot: the weak handle for liveness (and,
// in Window, epoch) checks plus a strong reference to its counter mirror,
// so pruning can fold every dead entry's counters and residents
// unconditionally.
type registryEntry[H any] struct {
	wp     weak.Pointer[H]
	shared *sharedCounters
}

// Register wires c — the Counters h embeds — to a fresh mirror and adds h
// to the registry, first pruning collected entries if the registry has
// doubled since the last prune. The registry holds h weakly: a handle its
// owner drops becomes collectable, and a later prune folds its last
// published counters into the retired total and its buffered residents
// into AbandonedItems. (Counters not yet flushed when a handle is
// abandoned — at most statsFlushInterval operations — are lost; call
// FlushStats before dropping a handle if they matter.)
func (r *Registry[H]) Register(h *H, c *Counters) {
	c.shared = &sharedCounters{}
	r.hMu.Lock()
	if len(r.handles) >= r.pruneAt {
		r.prune()
	}
	r.handles = append(r.handles, registryEntry[H]{wp: weak.Make(h), shared: c.shared})
	r.hMu.Unlock()
}

// prune drops the entries whose handles were collected, folding their
// counters and residents into the totals, and clears the vacated tail so
// the dropped mirrors are collectable too. Caller holds hMu.
func (r *Registry[H]) prune() {
	live := r.handles[:0]
	for _, e := range r.handles {
		if e.wp.Value() != nil {
			live = append(live, e)
		} else {
			r.retired.Add(e.shared.Load())
			r.abandoned += e.shared.residents.Load()
		}
	}
	clear(r.handles[len(live):])
	r.handles = live
	r.pruneAt = 2 * len(live)
}

// RegisteredHandles returns the number of registry entries: live handles
// plus collected ones not yet pruned. Diagnostics and tests.
func (r *Registry[H]) RegisteredHandles() int {
	r.hMu.Lock()
	defer r.hMu.Unlock()
	return len(r.handles)
}

// BufferedItems returns the op-buffer residents of every live handle:
// pending-but-unpublished pushes plus prefetched-but-undelivered pops
// (SetOpBuffer). The structures' Len adds it to their slot populations, so
// combined publication never makes items phantom-invisible to sizing.
// Approximate under concurrency, like Len.
func (r *Registry[H]) BufferedItems() int {
	var n int64
	r.hMu.Lock()
	for _, e := range r.handles {
		if e.wp.Value() != nil {
			n += e.shared.residents.Load()
		}
	}
	r.hMu.Unlock()
	return int(n)
}

// AbandonedItems returns how many op-buffered items were lost with handles
// their owners dropped without FlushOps (and without delivering their
// prefetch) once the garbage collector took the handle: only the owning
// goroutine may touch a handle's buffers, so those items cannot be
// recovered, only counted. Exact as soon as the handle is collected, before
// or after its registry entry is pruned. The counterpart of FlushOps:
// flush before dropping a buffered handle and this stays zero.
func (r *Registry[H]) AbandonedItems() int64 {
	r.hMu.Lock()
	defer r.hMu.Unlock()
	n := r.abandoned
	for _, e := range r.handles {
		if e.wp.Value() == nil {
			n += e.shared.residents.Load()
		}
	}
	return n
}

// StatsSnapshot aggregates the published counters of every registered
// handle plus the retired totals of pruned ones. It is safe to call from
// any goroutine and does not perturb the operation hot path: handles
// publish their counters every statsFlushInterval operations, so the
// snapshot trails the truth by at most that many operations per active
// handle (and by the same amount, permanently, per abandoned handle).
// Because the registry holds each handle's counter mirror strongly, a
// collected-but-not-yet-pruned handle's work is still read here — the
// snapshot never transiently loses completed operations. A window
// structure's reconfiguration traffic does not read as client operations:
// the shrink handoffs move stranded items without a handle. This is the
// feed for internal/adapt's controller.
func (r *Registry[H]) StatsSnapshot() OpStats {
	r.hMu.Lock()
	out := r.retired
	for _, e := range r.handles {
		out.Add(e.shared.Load())
	}
	r.hMu.Unlock()
	return out
}
