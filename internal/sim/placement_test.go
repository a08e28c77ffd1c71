package sim

import (
	"testing"

	"stack2d/internal/core"
)

// TestNewWordOnChargesRemoteHomeFetch: an untouched line homed on the
// other socket costs the inter-socket transfer; a local home costs a hit.
func TestNewWordOnChargesRemoteHomeFetch(t *testing.T) {
	m := DefaultMachine()
	s := MustNew(m)
	local := s.NewWordOn(1, 0)
	remote := s.NewWordOn(2, 1)
	var dLocal, dRemote int64
	s.Go(0, func(t *T) { // core 0 lives on socket 0
		c0 := t.Clock()
		t.Read(local)
		dLocal = t.Clock() - c0
		c0 = t.Clock()
		t.Read(remote)
		dRemote = t.Clock() - c0
	})
	s.Run(1)
	if dLocal != m.LocalCost {
		t.Fatalf("local-homed untouched read cost %d, want %d", dLocal, m.LocalCost)
	}
	if dRemote != m.InterSocketCost {
		t.Fatalf("remote-homed untouched read cost %d, want %d", dRemote, m.InterSocketCost)
	}
}

// TestPlacedSegmentsDeterministic: identical inputs give identical work.
func TestPlacedSegmentsDeterministic(t *testing.T) {
	m := DefaultMachine()
	homes := core.PlaceSlots(core.LocalFirst(), nil, 8, -1, 2)
	cfg := core.Config{Width: 8, Depth: 64, Shift: 64, RandomHops: 2}
	a, err := TwoDSegment(m, cfg, 16, 50000, 7, homes, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TwoDSegment(m, cfg, 16, 50000, 7, homes, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("placed segment not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestPlacedSegmentValidation rejects malformed home maps.
func TestPlacedSegmentValidation(t *testing.T) {
	m := DefaultMachine()
	if _, err := TwoDSegment(m, core.Config{Width: 4, Depth: 8, Shift: 8, RandomHops: 2}, 2, 1000, 1, []int{0, 1}, true); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := TwoDQueueSegment(m, core.Config{Width: 2, Depth: 8, Shift: 8, RandomHops: 2}, 2, 1000, 1, []int{0, 5}, true); err == nil {
		t.Fatal("out-of-range socket accepted")
	}
}

// TestLocalFirstBeatsBlindUnderContention pins the placement physics the
// adapttune A/B gate relies on: at a contended width (8 slots, 16 threads
// across both sockets), homing slots per socket and probing same-socket
// slots first keeps descriptor ping-pong intra-socket and must win for
// both structures. Fully deterministic.
func TestLocalFirstBeatsBlindUnderContention(t *testing.T) {
	m := DefaultMachine()
	const width, p, horizon = 8, 16, 200000
	localHomes := core.PlaceSlots(core.LocalFirst(), nil, width, -1, 2)
	rrHomes := core.PlaceSlots(core.RoundRobin(), nil, width, -1, 2)
	cfg := core.Config{Width: width, Depth: 64, Shift: 64, RandomHops: 2}
	type segf func(Machine, core.Config, int, int64, uint64, []int, bool) (core.OpStats, error)
	for name, seg := range map[string]segf{"stack": TwoDSegment, "queue": TwoDQueueSegment} {
		blind, err := seg(m, cfg, p, horizon, 1, rrHomes, false)
		if err != nil {
			t.Fatal(err)
		}
		local, err := seg(m, cfg, p, horizon, 1, localHomes, true)
		if err != nil {
			t.Fatal(err)
		}
		if local.Ops() <= blind.Ops() {
			t.Fatalf("%s: local-first %d ops did not beat blind %d ops", name, local.Ops(), blind.Ops())
		}
		t.Logf("%s: blind %d ops, local %d ops (%.2fx)", name, blind.Ops(), local.Ops(),
			float64(local.Ops())/float64(blind.Ops()))
	}
}
