package obs

// MetricPrefix namespaces every exported metric; a per-structure metric's
// full name is MetricPrefix + "_" + structure + "_" + suffix (for example
// stack2d_stack_pushes_total, stack2d_queue_k_bound), the tracer's own
// meta-metrics use the fixed "obs" structure. CI greps the suffix
// constants below against DESIGN.md §8, so every exported name stays
// documented: add a metric here and the build fails until the section's
// vocabulary table mentions it.
const MetricPrefix = "stack2d"

// Per-structure counter suffixes (monotone totals from core.OpStats).
const (
	MPushesTotal       = "pushes_total"
	MPopsTotal         = "pops_total"
	MEmptyPopsTotal    = "empty_pops_total"
	MProbesTotal       = "probes_total"
	MRandomHopsTotal   = "random_hops_total"
	MCASFailuresTotal  = "cas_failures_total"
	MWindowRaisesTotal = "window_raises_total"
	MWindowLowersTotal = "window_lowers_total"
	MRestartsTotal     = "restarts_total"
	MSocketCASTotal    = "socket_cas_total" // labelled {socket="i"}

	// Op-buffer losses (see BufferReporter).
	MAbandonedItemsTotal = "abandoned_items_total"
)

// Per-structure histogram suffixes.
const (
	MLatencyNs = "latency_ns" // 28-bucket log2 layout, see core.LatencyBucket
)

// Per-structure gauge suffixes (interval rates and current geometry).
const (
	MThroughputOps   = "throughput_ops"
	MCASPerOp        = "cas_per_op"
	MEnergyPerOp     = "energy_per_op"
	MLatencyP50Ns    = "latency_p50_ns" // -1 when the interval sampled nothing
	MLatencyP99Ns    = "latency_p99_ns" // (core.NoLatencySample sentinel)
	MGeometryWidth   = "geometry_width"
	MGeometryDepth   = "geometry_depth"
	MGeometryShift   = "geometry_shift"
	MKBound          = "k_bound"
	MShrinkDispBound = "shrink_displacement_bound"
	MSwapDispBound   = "swap_displacement_bound"
	MBufferedItems   = "buffered_items" // see BufferReporter
)

// Engine-switcher suffixes (see RegisterSwitcher).
const (
	MBackendSwapsTotal = "backend_swaps_total"
)

// Tracer meta-metric suffixes (structure "obs").
const (
	MEventsEmittedTotal = "events_emitted_total"
	MEventsDroppedTotal = "events_dropped_total"
)

// MetricName joins prefix, structure and suffix into a full exported name.
func MetricName(structure, suffix string) string {
	return MetricPrefix + "_" + structure + "_" + suffix
}
