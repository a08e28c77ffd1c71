package stack2d

import "stack2d/internal/core"

// NUMA-aware width placement.
//
// The paper's evaluation collapses past P = 8 because that is where its
// testbed's threads spill onto the second socket and every descriptor CAS
// can become a cross-socket cache-line transfer. Placement exploits what
// that cliff implies: each sub-structure slot is homed on a socket, width
// growth driven by the adaptive controller homes new slots on the socket
// whose contention asked for them, width shrink drops remote slots first,
// and a handle that knows its socket (Handle.Pin / QueueHandle.Pin, or
// the creation-order heuristic) visits same-socket slots before remote
// ones — so the window's hot slots stay intra-socket. Placement never
// changes the window validity rules, only slot homes and visit order, so
// the structure's k-out-of-order bound is untouched (DESIGN.md §7 gives
// the argument; EXPERIMENTS.md the measured local-vs-round-robin win on
// the simulated 2-socket machine).
//
// Enable it with WithPlacement at construction (one option for the stack
// and the queue), or SetPlacement on a live structure:
//
//	s := stack2d.New[int](
//		stack2d.WithWidth(8),
//		stack2d.WithPlacement(stack2d.LocalFirst(), 2), // 2-socket machine
//	)
//	h := s.NewHandle()
//	h.Pin(1) // this goroutine runs on socket 1
//
// On a single-socket machine (or with sockets <= 1) placement is inert.

// PlacementPolicy decides which socket newly created sub-structure slots
// are homed on when the geometry widens, and whether operations should
// probe same-socket slots first; see the field documentation in
// internal/core.PlacementPolicy (this is an alias). Use LocalFirst or
// RoundRobin unless you need a custom layout.
type PlacementPolicy = core.PlacementPolicy

// LocalFirst returns the default placement policy: new slots are homed on
// the socket whose contention requested the widening (up to its fair
// share, then spilling to the least-loaded socket), shrinks drop remote
// slots first, and handles probe same-socket slots before remote ones.
func LocalFirst() PlacementPolicy { return core.LocalFirst() }

// RoundRobin returns the A/B baseline policy: slot homes interleave
// sockets by index and probing stays socket-blind — exactly the
// behaviour of a structure without placement.
func RoundRobin() PlacementPolicy { return core.RoundRobin() }

// WithPlacement enables socket-aware placement on the stack or queue
// being built: policy homes the slots (LocalFirst or RoundRobin), sockets
// is the machine's socket count. Applied after construction, so it also
// re-homes the initial slots; combine with Handle.Pin (QueueHandle.Pin)
// for exact handle→socket hints. Read by New, NewQueue, NewAdaptive and
// NewAdaptiveQueue; NewEngine ignores it.
func WithPlacement(policy PlacementPolicy, sockets int) Option {
	return func(b *builder) {
		b.placePolicy = policy
		b.placeSockets = sockets
	}
}

// SetPlacement installs (or replaces) the stack's placement model at
// runtime; see internal/core.Stack.SetPlacement. Safe concurrently with
// operations.
func (s *Stack[T]) SetPlacement(policy PlacementPolicy, sockets int) {
	s.inner.SetPlacement(policy, sockets)
}

// Placement returns a copy of the stack's slot→socket home map (all zeros
// while placement is off).
func (s *Stack[T]) Placement() []int { return s.inner.Placement() }

// Pin declares the socket the owning goroutine runs on; under a
// local-probe placement policy subsequent operations visit slots homed on
// that socket first, and the handle's contention is attributed to it for
// the adaptive controller's widening decisions. Never affects the
// structure's semantics — only probe order.
func (h *Handle[T]) Pin(socket int) { h.h.Pin(socket) }

// SetPlacement installs (or replaces) the queue's placement model at
// runtime; see internal/twodqueue.Queue.SetPlacement. Safe concurrently
// with operations.
func (q *Queue[T]) SetPlacement(policy PlacementPolicy, sockets int) {
	q.inner.SetPlacement(policy, sockets)
}

// Placement returns a copy of the queue's slot→socket home map (all zeros
// while placement is off).
func (q *Queue[T]) Placement() []int { return q.inner.Placement() }

// Pin declares the socket the owning goroutine runs on; see Handle.Pin.
func (h *QueueHandle[T]) Pin(socket int) { h.h.Pin(socket) }
