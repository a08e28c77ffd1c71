package seqspec

import "fmt"

// OpKind discriminates the two operations in a recorded history: OpPush is
// a push or an enqueue, OpPop a pop or a dequeue.
type OpKind uint8

// Operation kinds.
const (
	OpPush OpKind = iota
	OpPop
)

func (k OpKind) String() string {
	switch k {
	case OpPush:
		return "push"
	case OpPop:
		return "pop"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one completed operation of a sequential history, in linearization
// order. For OpPop, Empty records a Pop that returned no value.
// SequentialIntervals turns such a history into the checkers' input.
type Op struct {
	Kind  OpKind
	Value uint64
	Empty bool
}
