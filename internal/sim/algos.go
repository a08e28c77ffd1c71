package sim

import "stack2d/internal/xrand"

// Simulated algorithm bodies. Each stack is modelled at the granularity
// that determines its coherence behaviour: the words its operations CAS.
// Values track per-structure population so validity checks and empty
// returns behave like the real code; payloads are irrelevant to cost.

// TreiberBody models the Treiber stack: every operation CASes the single
// top line. Under contention all threads ping-pong one line — the single
// access point bottleneck the paper starts from.
func TreiberBody(top *Word, seed uint64) func(*T) {
	return func(t *T) {
		rng := xrand.New(seed + uint64(t.Core())*0x9e3779b97f4a7c15)
		for t.Running() {
			if rng.Bool() { // push
				for t.Running() {
					v := t.Read(top)
					if t.CAS(top, v, v+1) {
						break
					}
				}
			} else { // pop
				for t.Running() {
					v := t.Read(top)
					if v == 0 {
						break // empty
					}
					if t.CAS(top, v, v-1) {
						break
					}
				}
			}
			t.OpDone()
		}
	}
}

// RandomMultiBody models the horizontally distributed stack with uniform
// random scheduling over `width` sub-stack lines.
func RandomMultiBody(subs []*Word, seed uint64) func(*T) {
	return func(t *T) {
		rng := xrand.New(seed + uint64(t.Core())*0x9e3779b97f4a7c15)
		width := len(subs)
		for t.Running() {
			if rng.Bool() { // push
				for t.Running() {
					i := rng.Intn(width)
					v := t.Read(subs[i])
					if t.CAS(subs[i], v, v+1) {
						break
					}
				}
			} else { // pop: random start, sweep for non-empty
				for t.Running() {
					start := rng.Intn(width)
					acted := false
					for probe := 0; probe < width; probe++ {
						i := (start + probe) % width
						v := t.Read(subs[i])
						if v == 0 {
							continue
						}
						if t.CAS(subs[i], v, v-1) {
							acted = true
							break
						}
					}
					if acted {
						break
					}
					// All observed empty: count as an empty return.
					break
				}
			}
			t.OpDone()
		}
	}
}

// EliminationBody models the elimination back-off stack: a central top
// line plus collision-slot lines. A failed central CAS diverts to a random
// slot where an opposite operation can cancel it out; collisions touch a
// slot line instead of the central line, which is the structure's whole
// point.
func EliminationBody(top *Word, slots []*Word, seed uint64) func(*T) {
	return func(t *T) {
		rng := xrand.New(seed + uint64(t.Core())*0x9e3779b97f4a7c15)
		for t.Running() {
			push := rng.Bool()
			for t.Running() {
				v := t.Read(top)
				if !push && v == 0 {
					break // empty
				}
				delta := int64(1)
				if !push {
					delta = -1
				}
				if t.CAS(top, v, v+delta) {
					break
				}
				// Contention: try to eliminate. A pusher parks +1 in an
				// empty slot and waits for a partner; a popper scans a few
				// random slots for a parked +1 to consume.
				if push {
					i := rng.Intn(len(slots))
					if t.Read(slots[i]) == 0 && t.CAS(slots[i], 0, 1) {
						t.Compute(128) // collision window
						if !t.CAS(slots[i], 1, 0) {
							break // taken: eliminated
						}
					}
					continue
				}
				eliminated := false
				for try := 0; try < 2 && !eliminated; try++ {
					i := rng.Intn(len(slots))
					if t.Read(slots[i]) == 1 && t.CAS(slots[i], 1, 0) {
						eliminated = true
					}
				}
				if eliminated {
					break
				}
			}
			t.OpDone()
		}
	}
}
