// Package quality measures relaxation error exactly the way the paper's
// Section 4 does: a sequential list runs alongside the structure under
// test; every successful Push inserts the item's unique label, every
// successful Pop searches the list for the popped label, removes it, and
// records its distance, the number of labels ahead of it in strict order.
// That distance is the "error distance from the LIFO semantics" (from FIFO
// for a queue); a strict structure always scores 0. Henzinger et al.'s
// k-out-of-order bound (POPL 2013) counts in the same unit, so the list,
// Ranks, is also what seqspec's k-distance checkers remove through: the
// repository has one instrument for out-of-order distance.
//
// The oracles guard the list with a mutex (it is the measurement
// instrument, not the system under test), but the stack operations
// themselves run unlocked, so concurrency-induced reordering is captured.
// A Pop may observe a label whose Push has completed on the stack but
// whose list insert has not yet run; Remove spins briefly for it — the
// insert is guaranteed to arrive because the pushing goroutine has
// already returned from the stack operation.
package quality

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"time"
)

// DefaultPatience bounds how long Remove waits for a racing Insert before
// declaring the history broken. The legitimate wait is one preempted
// goroutine's reschedule (the pusher has already returned from the stack
// op), so seconds of patience separates that from a genuinely absent label
// — a lost item, a duplicated pop, or a mislabeled harness — by orders of
// magnitude.
const DefaultPatience = 5 * time.Second

// entry is a node of the rank list.
type entry struct {
	label uint64
	next  *entry
}

// Ranks is the rank list: the resident labels in strict removal order, so
// a removed label's distance is the number of labels ahead of it. A LIFO
// list takes each label at its head (newest first), a FIFO list at its
// tail (oldest first), and removal searches from the head either way; a
// linked list keeps a FIFO removal from moving every younger label. The
// zero value is an empty list. Ranks is not safe for concurrent use.
type Ranks struct {
	head, tail *entry
	n          int
}

// Insert adds label at the head of the list, or with fifo at its tail.
func (r *Ranks) Insert(label uint64, fifo bool) {
	e := &entry{label: label}
	switch {
	case r.head == nil:
		r.head, r.tail = e, e
	case fifo:
		r.tail.next, r.tail = e, e
	default:
		e.next, r.head = r.head, e
	}
	r.n++
}

// Remove deletes label and returns its distance, the number of labels
// ahead of it. found is false, and the list unchanged, when label is not
// resident.
func (r *Ranks) Remove(label uint64) (dist int, found bool) {
	var prev *entry
	for e := r.head; e != nil; prev, e = e, e.next {
		if e.label != label {
			dist++
			continue
		}
		if prev == nil {
			r.head = e.next
		} else {
			prev.next = e.next
		}
		if e == r.tail {
			r.tail = prev
		}
		r.n--
		return dist, true
	}
	return 0, false
}

// Len returns the number of resident labels.
func (r *Ranks) Len() int { return r.n }

// Stats accumulates the error-distance distribution of one run.
type Stats struct {
	Count uint64  // number of measured pops
	Sum   float64 // sum of distances
	Max   int
	// Hist buckets distances by bit length: bucket i counts distances d
	// with bits.Len(d) == i, i.e. bucket 0 holds exact-LIFO pops (d = 0),
	// bucket 1 holds d = 1, bucket 2 holds 2..3, bucket 3 holds 4..7, ...
	Hist [33]uint64
}

// Mean returns the mean error distance (the paper's quality metric).
func (s Stats) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// oracle is the locked rank list and its statistics, the one body of
// Oracle and FIFOOracle: they differ only in where Insert puts a label.
type oracle struct {
	mu    sync.Mutex
	ranks Ranks
	stats Stats
}

// Oracle is the sequential side list for a stack: Insert records a pushed
// label at the head, so distance counts from the newest label. The zero
// value is ready to use. All methods are safe for concurrent use.
type Oracle struct{ oracle }

// Insert records a pushed label at the head of the list.
func (o *Oracle) Insert(label uint64) { o.insert(label, false) }

// FIFOOracle is the queue counterpart of Oracle: Insert appends at the
// tail (enqueue order), so distance counts from the front — the error
// distance from FIFO semantics used by the 2D-Queue extension experiments.
// The zero value is ready to use.
type FIFOOracle struct{ oracle }

// Insert records an enqueued label at the tail of the list.
func (o *FIFOOracle) Insert(label uint64) { o.insert(label, true) }

func (o *oracle) insert(label uint64, fifo bool) {
	o.mu.Lock()
	o.ranks.Insert(label, fifo)
	o.mu.Unlock()
}

// Remove deletes label from the list and records its distance. It waits
// up to DefaultPatience for the label's racing Insert (see package
// comment) and panics with a diagnostic if it never arrives — an
// out-of-sync label is a harness or structure bug, and a loud immediate
// failure beats a silent test timeout.
func (o *oracle) Remove(label uint64) int {
	d, err := o.RemoveWithin(label, DefaultPatience)
	if err != nil {
		panic(err)
	}
	return d
}

// RemoveWithin is Remove with an explicit patience bound, returning a
// diagnostic error instead of panicking when the label never appears.
func (o *oracle) RemoveWithin(label uint64, patience time.Duration) (int, error) {
	// The deadline is armed lazily: the hit path never reads the clock.
	var deadline time.Time
	for {
		o.mu.Lock()
		if dist, found := o.ranks.Remove(label); found {
			o.stats.Count++
			o.stats.Sum += float64(dist)
			o.stats.Max = max(o.stats.Max, dist)
			o.stats.Hist[bits.Len(uint(dist))]++
			o.mu.Unlock()
			return dist, nil
		}
		// Label not present yet: its Push has linearized on the structure
		// but the pusher has not reached Insert. Yield and retry, up to
		// the patience bound.
		n := o.ranks.Len()
		o.mu.Unlock()
		now := time.Now()
		if deadline.IsZero() {
			deadline = now.Add(patience)
		} else if now.After(deadline) {
			return 0, fmt.Errorf("quality: label %d never inserted (waited %v, %d labels resident): lost item, duplicated pop, or mislabeled harness", label, patience, n)
		}
		runtime.Gosched()
	}
}

// Len returns the current list population.
func (o *oracle) Len() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ranks.Len()
}

// Snapshot returns a copy of the accumulated statistics.
func (o *oracle) Snapshot() Stats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.stats
}
