// Package yield defines the vocabulary of the deterministic schedule
// director's yield points (internal/director, DESIGN.md §10): the small set
// of semantically meaningful places where a data-path package offers the
// director a chance to suspend the running operation and interleave another
// one.
//
// The contract is deliberately minimal so the data-path packages stay free
// of any scheduler dependency: this package holds the one hook,
//
//	var Gate func(Point)
//
// and the data-path packages (internal/core, which also carries the
// 2D-Queue's window shell, internal/twodqueue and internal/engine) call
// Fire at each site. Gate is nil in production — a site then costs one
// predicted-untaken nil check on paths that are already slow (a failed
// CAS, a window move, a reconfiguration, a drain wait) and nothing at all
// on the uncontended fast path, which never reaches a site. The director
// installs its scheduler into Gate for the duration of one directed run and
// restores nil afterwards; installation must happen while no operations are
// in flight (the happens-before edge is the director's own task spawning).
//
// This package must stay dependency-free: it is imported by the hot-path
// packages.
package yield

// Point identifies one yield-point class. The data-path constants below are
// the injection sites named by DESIGN.md §10; the director adds its own
// op-boundary points in the same value space so one recorded schedule
// vocabulary covers both.
type Point uint8

const (
	// PointCASFail fires immediately after an operation's descriptor (or
	// sub-structure) CAS lost to a concurrent operation — the moment
	// contention is detected and the search is about to hop.
	PointCASFail Point = iota
	// PointWindowMove fires immediately before an operation attempts to
	// move a window ceiling (the stack's Global raise/lower, the queue's
	// GlobalEnq/GlobalDeq raises) after a full failed coverage pass.
	PointWindowMove
	// PointGeometryPublish fires inside a reconfiguration, immediately
	// before the new geometry is published to the structure's atomic
	// pointer — the instant the window rules change for new pins.
	PointGeometryPublish
	// PointSwapDrain fires at the entry of a backend swap's drain phase,
	// immediately after the outgoing slot is marked draining
	// (internal/engine.Switcher.Swap).
	PointSwapDrain
	// PointWait fires on each iteration of a bounded-progress wait loop —
	// epoch-quiescence waits, swap drain pin-waits, operation-side
	// draining-slot retries. The director parks a task yielding here until
	// some other task makes progress, so spin loops cannot monopolise a
	// directed schedule.
	PointWait

	// PointOpBegin marks the director's own op-boundary yield: the grant on
	// which a recorded operation's interval begins. Never fired through a
	// data-path gate.
	PointOpBegin
	// PointSpawn marks a task's very first grant, before its body runs.
	PointSpawn
)

// String returns the schedule-trace name of the point.
func (p Point) String() string {
	switch p {
	case PointCASFail:
		return "cas-fail"
	case PointWindowMove:
		return "window-move"
	case PointGeometryPublish:
		return "geometry-publish"
	case PointSwapDrain:
		return "swap-drain"
	case PointWait:
		return "wait"
	case PointOpBegin:
		return "op-begin"
	case PointSpawn:
		return "spawn"
	default:
		return "unknown"
	}
}

// Gate is the deterministic schedule director's hook (DESIGN.md §10). It
// is nil in production and installed by internal/director for the duration
// of one directed run. Install and clear only while no operations are in
// flight.
var Gate func(Point)

// Fire calls the installed Gate, if any. Kept tiny so the nil fast path
// inlines to a single load-and-branch at every call site.
func Fire(p Point) {
	if g := Gate; g != nil {
		g(p)
	}
}
