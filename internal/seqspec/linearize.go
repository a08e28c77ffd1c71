package seqspec

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxLinearizableOps bounds the linearizability checkers' input size; the
// search is worst-case exponential (linearizability checking is NP-hard),
// so it is a unit-test tool for small concurrent histories, complementing
// the necessary-condition checkers that scale to millions of operations.
const MaxLinearizableOps = 24

// CheckLinearizableLIFO decides whether the interval history has a
// linearization that is a legal strict-stack (LIFO) sequential history: a
// total order of the operations that respects real-time precedence
// (op a before op b whenever a.End < b.Begin) and replays correctly on the
// sequential stack model, with pops returning exactly the model top and
// empty pops occurring only on an empty model.
//
// It performs a memoized depth-first search over linearization prefixes.
// Histories longer than MaxLinearizableOps are rejected with an error.
func CheckLinearizableLIFO(ops []IntervalOp) error { return checkLinearizable(ops, false) }

// CheckLinearizableFIFO is CheckLinearizableLIFO's queue counterpart: it
// decides whether the interval history (OpPush = enqueue, OpPop = dequeue)
// has a real-time-respecting linearization that is a legal strict FIFO
// queue history.
func CheckLinearizableFIFO(ops []IntervalOp) error { return checkLinearizable(ops, true) }

// checkLinearizable is the search both checkers run; fifo picks the end a
// pop must match: the newest resident item (the stack's top) or the oldest
// (the queue's front).
func checkLinearizable(ops []IntervalOp, fifo bool) error {
	n := len(ops)
	if n == 0 {
		return nil
	}
	if n > MaxLinearizableOps {
		return fmt.Errorf("seqspec: history of %d ops exceeds the exhaustive-check limit %d", n, MaxLinearizableOps)
	}
	for i, op := range ops {
		if op.Begin > op.End {
			return fmt.Errorf("seqspec: op %d malformed interval", i)
		}
	}

	// visited memoizes failed states: key = chosen-set mask + the model's
	// items, oldest first.
	visited := make(map[string]bool)
	stateKey := func(mask uint32, items []uint64) string {
		var sb strings.Builder
		sb.WriteString(strconv.FormatUint(uint64(mask), 16))
		sb.WriteByte(':')
		for _, v := range items {
			sb.WriteString(strconv.FormatUint(v, 36))
			sb.WriteByte(',')
		}
		return sb.String()
	}

	var dfs func(mask uint32, items []uint64) bool
	dfs = func(mask uint32, items []uint64) bool {
		if mask == uint32(1<<n)-1 {
			return true
		}
		key := stateKey(mask, items)
		if visited[key] {
			return false
		}
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				continue
			}
			// Real-time: i may linearize next only if no other pending op
			// finished strictly before i began.
			eligible := true
			for j := 0; j < n; j++ {
				if j == i || mask&(1<<j) != 0 {
					continue
				}
				if ops[j].End < ops[i].Begin {
					eligible = false
					break
				}
			}
			if !eligible {
				continue
			}
			op := ops[i]
			switch {
			case op.Kind == OpPush:
				// Copy: sibling branches must not share backing arrays.
				next := make([]uint64, len(items)+1)
				copy(next, items)
				next[len(items)] = op.Value
				if dfs(mask|1<<i, next) {
					return true
				}
			case op.Empty:
				if len(items) == 0 && dfs(mask|1<<i, items) {
					return true
				}
			case len(items) > 0: // pop of a value: must match the order's end
				end := len(items) - 1
				if fifo {
					end = 0
				}
				if items[end] != op.Value {
					continue
				}
				next := make([]uint64, 0, len(items)-1)
				next = append(append(next, items[:end]...), items[end+1:]...)
				if dfs(mask|1<<i, next) {
					return true
				}
			}
		}
		visited[key] = true
		return false
	}

	if !dfs(0, nil) {
		order := "LIFO"
		if fifo {
			order = "FIFO"
		}
		return fmt.Errorf("seqspec: history of %d ops has no %s linearization", n, order)
	}
	return nil
}
