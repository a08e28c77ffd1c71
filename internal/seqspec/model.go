// Package seqspec provides the specifications of a stack and a queue, and
// checks of implementations against them:
//
//   - Strict references: Model (LIFO) and FIFOModel. Every implementation
//     in this repository, relaxed or not, is compared value by value
//     against one of them where its contract is strict.
//   - One distance check: KStackChecker and KFIFOChecker verify a recorded
//     history against a claimed k-out-of-order bound (Henzinger et al.,
//     POPL'13). They measure each pop's distance with internal/quality's
//     rank list, the same instrument as the quality oracles; a sequential
//     history is checked as the interval history SequentialIntervals
//     builds, with zero slack.
//   - Explorers: ExploreStack and ExploreQueue enumerate every history of
//     the window discipline at a small geometry, restating it
//     independently of the implementation, and certify the Theorem-1
//     constant (DESIGN.md §2).
//   - Linearizability checkers: CheckLinearizable* search every
//     linearization of a micro-history, and CheckIntervalSanity checks the
//     necessary conditions at any size.
package seqspec

// Model is a plain sequential stack over uint64 labels. The zero value is an
// empty, ready-to-use stack.
type Model struct {
	items []uint64
}

// Push appends v to the top.
func (m *Model) Push(v uint64) { m.items = append(m.items, v) }

// Pop removes and returns the top item; ok is false on empty.
func (m *Model) Pop() (v uint64, ok bool) {
	if len(m.items) == 0 {
		return 0, false
	}
	v = m.items[len(m.items)-1]
	m.items = m.items[:len(m.items)-1]
	return v, true
}

// Len reports the number of stored items.
func (m *Model) Len() int { return len(m.items) }

// FIFOModel is a plain sequential queue over uint64 labels, the strict
// specification of the 2D-Queue extension (see internal/twodqueue). The
// zero value is an empty queue.
type FIFOModel struct {
	items []uint64
	front int // index of the logical front within items
}

// Enqueue appends v at the back.
func (m *FIFOModel) Enqueue(v uint64) { m.items = append(m.items, v) }

// Dequeue removes and returns the front item; ok is false on empty.
func (m *FIFOModel) Dequeue() (v uint64, ok bool) {
	if m.front == len(m.items) {
		return 0, false
	}
	v = m.items[m.front]
	m.front++
	m.compact()
	return v, true
}

// Len reports the number of stored items.
func (m *FIFOModel) Len() int { return len(m.items) - m.front }

func (m *FIFOModel) compact() {
	if m.front > 1024 && m.front*2 > len(m.items) {
		m.items = append(m.items[:0], m.items[m.front:]...)
		m.front = 0
	}
}
