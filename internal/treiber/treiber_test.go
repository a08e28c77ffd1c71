package treiber

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"stack2d/internal/seqspec"
)

func TestZeroValueUsable(t *testing.T) {
	var s Stack[int]
	if _, ok := s.Pop(); ok {
		t.Fatal("zero-value stack popped a value")
	}
	s.Push(1)
	if v, ok := s.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d,%v want 1,true", v, ok)
	}
}

func TestSequentialLIFO(t *testing.T) {
	s := New[uint64]()
	var m seqspec.Model
	for v := uint64(0); v < 100; v++ {
		s.Push(v)
		m.Push(v)
	}
	for {
		want, wok := m.Pop()
		got, gok := s.Pop()
		if wok != gok {
			t.Fatalf("emptiness diverged: model %v stack %v", wok, gok)
		}
		if !wok {
			break
		}
		if got != want {
			t.Fatalf("Pop = %d, want %d", got, want)
		}
	}
}

func TestInterleavedAgainstModel(t *testing.T) {
	// Deterministic interleaving of pushes and pops must match the model.
	s := New[uint64]()
	var m seqspec.Model
	ops := []struct {
		push bool
		v    uint64
	}{
		{true, 1}, {true, 2}, {false, 0}, {true, 3}, {false, 0},
		{false, 0}, {false, 0}, {true, 4}, {false, 0}, {false, 0},
	}
	for i, op := range ops {
		if op.push {
			s.Push(op.v)
			m.Push(op.v)
			continue
		}
		got, gok := s.Pop()
		want, wok := m.Pop()
		if gok != wok || got != want {
			t.Fatalf("step %d: Pop = (%d,%v), want (%d,%v)", i, got, gok, want, wok)
		}
	}
}

func TestPeek(t *testing.T) {
	s := New[string]()
	if _, ok := s.Peek(); ok {
		t.Fatal("Peek on empty returned ok")
	}
	s.Push("a")
	s.Push("b")
	if v, ok := s.Peek(); !ok || v != "b" {
		t.Fatalf("Peek = %q,%v want b,true", v, ok)
	}
	if s.Len() != 2 {
		t.Fatalf("Peek changed Len: %d", s.Len())
	}
}

func TestTryPushTryPopSequential(t *testing.T) {
	s := New[int]()
	if !s.TryPush(7) {
		t.Fatal("uncontended TryPush failed")
	}
	v, ok, contended := s.TryPop()
	if !ok || contended || v != 7 {
		t.Fatalf("TryPop = (%d,%v,%v), want (7,true,false)", v, ok, contended)
	}
	_, ok, contended = s.TryPop()
	if ok || contended {
		t.Fatalf("TryPop on empty = (_, %v, %v), want (false,false)", ok, contended)
	}
}

func TestLenQuiescent(t *testing.T) {
	s := New[int]()
	for i := 0; i < 10; i++ {
		s.Push(i)
	}
	if got := s.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	for i := 0; i < 4; i++ {
		s.Pop()
	}
	if got := s.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if s.Empty() {
		t.Fatal("Empty true with 6 items")
	}
}

func TestDrain(t *testing.T) {
	s := New[int]()
	for i := 1; i <= 3; i++ {
		s.Push(i)
	}
	got := s.Drain()
	want := []int{3, 2, 1}
	if len(got) != 3 {
		t.Fatalf("Drain = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Drain = %v, want %v", got, want)
		}
	}
	if !s.Empty() {
		t.Fatal("stack not empty after Drain")
	}
}

// TestPushBatchOrder pins PushBatch's meaning, a loop of Push over vs:
// vs[len-1] ends on top, the run lies contiguous over what was there, an
// uncontended batch takes one CAS, and Drain returns top first.
func TestPushBatchOrder(t *testing.T) {
	s := New[int]()
	s.Push(0)
	if f := s.PushBatch([]int{1, 2, 3}); f != 0 {
		t.Fatalf("uncontended PushBatch failed %d CASes", f)
	}
	s.PushBatch(nil)
	s.Push(4)
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if v, ok := s.Peek(); !ok || v != 4 {
		t.Fatalf("Peek = (%d,%v), want 4", v, ok)
	}
	if got, want := s.Drain(), []int{4, 3, 2, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("Drain = %v, want %v", got, want)
	}
	if !s.Empty() || s.Len() != 0 {
		t.Fatalf("Empty = %v, Len = %d after Drain", s.Empty(), s.Len())
	}
}

// TestConcurrentPushBatchConservation hammers PushBatch, Push, Pop and
// Drain from several goroutines (run with -race for full effect): every
// item comes out exactly once, popped or drained during the run or
// drained after it, and Len is exact once the run is over.
func TestConcurrentPushBatchConservation(t *testing.T) {
	const (
		workers = 4
		rounds  = 1000
		batch   = 8
	)
	s := New[uint64]()
	var wg sync.WaitGroup
	out := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			next := uint64(w) << 32
			vs := make([]uint64, batch)
			for r := 0; r < rounds; r++ {
				for i := range vs {
					vs[i] = next
					next++
				}
				s.PushBatch(vs)
				s.Push(next)
				next++
				for i := 0; i < batch; i++ {
					if v, ok := s.Pop(); ok {
						out[w] = append(out[w], v)
					}
				}
				if w == 0 && r%100 == 99 {
					out[w] = append(out[w], s.Drain()...)
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool, workers*rounds*(batch+1))
	for _, vs := range append(out, s.Drain()) {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %#x came out twice", v)
			}
			seen[v] = true
		}
	}
	if want := workers * rounds * (batch + 1); len(seen) != want {
		t.Fatalf("%d distinct values came out, want %d", len(seen), want)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after the final Drain", s.Len())
	}
}

// TestConcurrentConservation checks that under heavy concurrent push/pop no
// value is lost or duplicated (run with -race for full effect).
func TestConcurrentConservation(t *testing.T) {
	const (
		workers = 8
		perW    = 2000
	)
	s := New[uint64]()
	var wg sync.WaitGroup
	popped := make([][]uint64, workers)

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				s.Push(uint64(w*perW + i))
				if v, ok := s.Pop(); ok {
					popped[w] = append(popped[w], v)
				}
			}
		}(w)
	}
	wg.Wait()

	seen := make(map[uint64]int, workers*perW)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
		seen[v]++
	}
	if len(seen) != workers*perW {
		t.Fatalf("conservation violated: %d distinct values, want %d", len(seen), workers*perW)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d observed %d times", v, n)
		}
	}
}

// TestConcurrentPoppersDrainExactly spawns pure poppers against a prefilled
// stack and checks each item is returned exactly once.
func TestConcurrentPoppersDrainExactly(t *testing.T) {
	const n = 10000
	s := New[uint64]()
	for v := uint64(0); v < n; v++ {
		s.Push(v)
	}
	const workers = 8
	results := make(chan uint64, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				v, ok := s.Pop()
				if !ok {
					return
				}
				results <- v
			}
		}()
	}
	wg.Wait()
	close(results)
	seen := make(map[uint64]bool, n)
	for v := range results {
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != n {
		t.Fatalf("popped %d distinct values, want %d", len(seen), n)
	}
}

// Property: pushing any sequence then draining returns its reverse.
func TestPushDrainPropertyReverses(t *testing.T) {
	f := func(vals []uint64) bool {
		s := New[uint64]()
		for _, v := range vals {
			s.Push(v)
		}
		out := s.Drain()
		if len(out) != len(vals) {
			return false
		}
		for i, v := range out {
			if v != vals[len(vals)-1-i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPoppedValueIsCollectable documents the audit for the msqueue
// dummy-node pinning bug: the Treiber pop unlinks the popped node wholesale,
// so the stack must retain no reference to a popped value. A finalizer on
// the popped allocation proves it.
func TestPoppedValueIsCollectable(t *testing.T) {
	s := New[*[]byte]()
	big := new([]byte)
	*big = make([]byte, 1<<16)
	collected := make(chan struct{})
	runtime.SetFinalizer(big, func(*[]byte) { close(collected) })
	s.Push(new([]byte))
	s.Push(big) // top, so the popped node's next still points into the list
	got, ok := s.Pop()
	if !ok || got != big {
		t.Fatalf("Pop = (%p,%v), want the pushed pointer", got, ok)
	}
	got, big = nil, nil
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("popped value still reachable from the stack")
		default:
			time.Sleep(time.Millisecond)
		}
	}
}
