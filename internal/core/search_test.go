package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"stack2d/internal/yield"
)

// slot is a fake window slot: Search's visitor only needs to know which
// one it was handed.
type slot struct{ id int }

const (
	searchWidth = 4
	deqEnd      = 1 // the queue's dequeue-end anchor index, the end Held serves
)

// searchRig is a window of searchWidth fake slots with one registered
// handle and a ceiling, for driving Search with scripted verdicts.
type searchRig struct {
	w       Window[int, slot]
	h       *WindowHandle[int, slot]
	ceiling atomic.Int64
	visited []int // slot ids in probe order, filled by search
}

func newSearchRig(t *testing.T, hops int) *searchRig {
	t.Helper()
	r := &searchRig{h: &WindowHandle[int, slot]{}}
	err := r.w.Init(Config{Width: searchWidth, Depth: 4, Shift: 4, RandomHops: hops}, Hooks[slot]{
		Grow: func(subs []*slot, cfg Config) []*slot {
			for i := len(subs); i < cfg.Width; i++ {
				subs = append(subs, &slot{id: i})
			}
			return subs
		},
		Raise: func(int64) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.w.Register(r.h, 2, BufferHooks[int]{})
	r.h.Last = [2]int{0, 0}
	r.ceiling.Store(4)
	return r
}

// search runs one Search at end whose visitor answers probe i with
// step(i), logging the slot of every probe.
func (r *searchRig) search(end int, step func(i int) Visit) (global int64, held, done bool) {
	r.visited = r.visited[:0]
	return r.h.Search(r.w.Geometry(), end, &r.ceiling, func(s *slot, global int64) Visit {
		r.visited = append(r.visited, s.id)
		return step(len(r.visited) - 1)
	})
}

// script answers probe i with vs[i], and Skip after the script ends.
func script(vs ...Visit) func(i int) Visit {
	return func(i int) Visit {
		if i < len(vs) {
			return vs[i]
		}
		return Skip
	}
}

// checkRoundRobin fails t unless ids is one full round-robin pass: width
// consecutive slots in index order, wrapping.
func checkRoundRobin(t *testing.T, ids []int) {
	t.Helper()
	if len(ids) != searchWidth {
		t.Fatalf("pass %v covers %d probes, want %d", ids, len(ids), searchWidth)
	}
	for i, id := range ids {
		if want := (ids[0] + i) % searchWidth; id != want {
			t.Fatalf("pass %v is not round-robin from %d", ids, ids[0])
		}
	}
}

// forHops runs f as a subtest with RandomHops 0 and 2.
func forHops(t *testing.T, f func(t *testing.T, hops int)) {
	for _, hops := range []int{0, 2} {
		t.Run(fmt.Sprintf("hops%d", hops), func(t *testing.T) { f(t, hops) })
	}
}

// TestSearchPassEndsAfterWidthSkips: with every probe Skip, a search takes
// its random hops, then ends after exactly width round-robin probes at an
// unchanged ceiling — the hops do not count toward coverage — and reports
// the ceiling it ran under without moving the anchor.
func TestSearchPassEndsAfterWidthSkips(t *testing.T) {
	forHops(t, func(t *testing.T, hops int) {
		r := newSearchRig(t, hops)
		r.h.Last[0] = 1
		global, held, done := r.search(0, script())
		if global != 4 || held || done {
			t.Fatalf("Search = (%d, %v, %v), want (4, false, false)", global, held, done)
		}
		if r.visited[0] != 1 || len(r.visited) != hops+searchWidth {
			t.Fatalf("probes %v: want %d random hops from anchor 1, then %d round-robin", r.visited, hops, searchWidth)
		}
		checkRoundRobin(t, r.visited[hops:])
		if want := (OpStats{Probes: uint64(hops + searchWidth), RandomHops: uint64(hops)}); r.h.Count != want {
			t.Fatalf("counters %+v, want %+v", r.h.Count, want)
		}
		if r.h.Last[0] != 1 {
			t.Fatalf("a failed pass moved the anchor to %d", r.h.Last[0])
		}
	})
}

// TestSearchLostHopsAndRestartsCoverage: a lost race counts one CAS
// failure against the handle's socket, fires PointCASFail once, hops with
// no further random hops, and needs width fresh round-robin probes — the
// Skip before it no longer counts.
func TestSearchLostHopsAndRestartsCoverage(t *testing.T) {
	forHops(t, func(t *testing.T, hops int) {
		r := newSearchRig(t, hops)
		var casFails, other int
		yield.Gate = func(p yield.Point) {
			if p == yield.PointCASFail {
				casFails++
			} else {
				other++
			}
		}
		defer func() { yield.Gate = nil }()
		_, _, done := r.search(0, script(Skip, Lost))
		if done {
			t.Fatal("Search reported done without a Done verdict")
		}
		if casFails != 1 || other != 0 {
			t.Fatalf("gate saw %d cas-fail and %d other points, want 1 and 0", casFails, other)
		}
		if len(r.visited) != 2+searchWidth {
			t.Fatalf("probes %v: want Skip, Lost, then %d fresh round-robin", r.visited, searchWidth)
		}
		checkRoundRobin(t, r.visited[2:])
		want := OpStats{Probes: uint64(2 + searchWidth), RandomHops: uint64(min(hops, 1)), CASFailures: 1}
		want.SocketCAS[r.h.Socket()] = 1
		if r.h.Count != want {
			t.Fatalf("counters %+v, want %+v", r.h.Count, want)
		}
	})
}

// TestSearchCeilingChangeRestarts: a ceiling move between probes restarts
// the pass — one restart, a fresh hop budget and coverage count — and
// clears a Held seen before it; without the move the Held is reported.
func TestSearchCeilingChangeRestarts(t *testing.T) {
	forHops(t, func(t *testing.T, hops int) {
		r := newSearchRig(t, hops)
		if _, held, _ := r.search(deqEnd, script(Held)); !held {
			t.Fatal("a pass that saw Held reported held = false")
		}

		r = newSearchRig(t, hops)
		global, held, done := r.search(deqEnd, func(i int) Visit {
			switch i {
			case 0:
				return Held
			case 1:
				r.ceiling.Add(4)
			}
			return Skip
		})
		if global != 8 || held || done {
			t.Fatalf("Search = (%d, %v, %v), want (8, false, false)", global, held, done)
		}
		// Two probes at the old ceiling (both random hops when hops = 2),
		// then a full search at the new one.
		probes := 2 + hops + searchWidth
		if len(r.visited) != probes {
			t.Fatalf("probes %v: want 2 before the restart, then %d hops and %d round-robin", r.visited, hops, searchWidth)
		}
		checkRoundRobin(t, r.visited[2+hops:])
		want := OpStats{Probes: uint64(probes), RandomHops: uint64(2 * hops), Restarts: 1}
		if r.h.Count != want {
			t.Fatalf("counters %+v, want %+v", r.h.Count, want)
		}
	})
}

// TestSearchMoreStaysOnSlot: More keeps probing the slot it was returned
// on and moves that end's anchor there; Done returns from the same slot.
func TestSearchMoreStaysOnSlot(t *testing.T) {
	forHops(t, func(t *testing.T, hops int) {
		r := newSearchRig(t, hops)
		r.h.Last = [2]int{3, 2}
		_, _, done := r.search(deqEnd, script(Skip, More, More, Done))
		if !done {
			t.Fatal("Search did not report done after Done")
		}
		at := r.visited[1]
		if len(r.visited) != 4 || r.visited[0] != 2 || r.visited[2] != at || r.visited[3] != at {
			t.Fatalf("probes %v: want anchor 2, then one slot three times", r.visited)
		}
		if r.h.Last != [2]int{3, at} {
			t.Fatalf("anchors %v, want [3 %d]: only the searched end moves", r.h.Last, at)
		}
		if want := (OpStats{Probes: 4, RandomHops: uint64(min(hops, 1))}); r.h.Count != want {
			t.Fatalf("counters %+v, want %+v", r.h.Count, want)
		}
	})
}
