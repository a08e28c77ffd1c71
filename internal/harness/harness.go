// Package harness drives the paper's experimental methodology (Section 4):
// P workers issue Push/Pop uniformly at random with no think time against a
// prefilled stack (32,768 items in the paper) for a fixed duration;
// throughput is operations per second, quality is the mean error distance
// from LIFO measured by the internal/quality oracle; every point is the
// average of several repeats.
//
// The paper's runs take their designs from internal/relax's catalogue: a
// Factory builds a fresh relax backend per run, and the workers drive its
// uncounted handles (relax.NewUncountedHandle), so the same runner
// reproduces Figure 1 (relaxation sweep, relax.NewBackendForK), Figure 2
// (concurrency sweep, relax.NewDefaultBackend) and the ablation
// experiments. One worker loop generates every run: Run and RunQuality are
// one-phase runs of the phased loop behind RunPhased and its siblings, and
// only that loop picks a structure's quality oracle.
package harness

import "stack2d/internal/relax"

// Worker is one goroutine's operation context on a structure under test.
type Worker = relax.Ops[uint64]

// Factory builds a fresh, empty structure for each run: a relax backend
// constructor, usually relax.NewDefaultBackend or relax.NewBackendForK
// closed over its arguments. A run reads the series name, the bound and
// the order from the backend it builds (Algorithm().String(), KBound(),
// Algorithm().Ordering()).
type Factory func() (relax.Backend[uint64], error)
