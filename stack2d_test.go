package stack2d_test

import (
	"sync"
	"testing"

	"stack2d"
)

func TestNewDefaults(t *testing.T) {
	s := stack2d.New[int]()
	cfg := s.Config()
	if cfg.Width < 4 {
		t.Fatalf("default width = %d, want >= 4", cfg.Width)
	}
	if cfg.Depth != 64 || cfg.Shift != 64 {
		t.Fatalf("default depth/shift = %d/%d, want 64/64", cfg.Depth, cfg.Shift)
	}
	if s.K() != cfg.K() {
		t.Fatalf("K() = %d, want %d", s.K(), cfg.K())
	}
}

func TestOptionsStructural(t *testing.T) {
	s := stack2d.New[int](
		stack2d.WithWidth(3),
		stack2d.WithDepth(16),
		stack2d.WithShift(8),
		stack2d.WithRandomHops(1),
	)
	cfg := s.Config()
	if cfg.Width != 3 || cfg.Depth != 16 || cfg.Shift != 8 || cfg.RandomHops != 1 {
		t.Fatalf("options not applied: %+v", cfg)
	}
	// (2*16+8)*(3-1) = 80
	if s.K() != 80 {
		t.Fatalf("K = %d, want 80", s.K())
	}
}

func TestWithDepthClampsShift(t *testing.T) {
	// Default shift is 64; setting only depth below that must keep the
	// config valid.
	s := stack2d.New[int](stack2d.WithDepth(8))
	cfg := s.Config()
	if cfg.Shift > cfg.Depth {
		t.Fatalf("shift %d exceeds depth %d", cfg.Shift, cfg.Depth)
	}
}

func TestWithShiftOnlyLiftsDepth(t *testing.T) {
	// Regression (same latent bug as the queue resolver): WithShift(s) with
	// s beyond the default depth used to panic in Validate even though the
	// intent is unambiguous — a lone shift override lifts depth to match.
	s := stack2d.New[int](stack2d.WithShift(128))
	cfg := s.Config()
	if cfg.Shift != 128 || cfg.Depth != 128 {
		t.Fatalf("shift-only option gave depth %d shift %d, want 128/128", cfg.Depth, cfg.Shift)
	}
	// A shift below the default depth must not disturb depth.
	if got := stack2d.New[int](stack2d.WithShift(16)).Config(); got.Shift != 16 || got.Depth != 64 {
		t.Fatalf("small shift override gave depth %d shift %d, want 64/16", got.Depth, got.Shift)
	}
	// Contradictory explicit pairs still panic.
	defer func() {
		if recover() == nil {
			t.Fatal("WithDepth(4)+WithShift(9) did not panic")
		}
	}()
	stack2d.New[int](stack2d.WithDepth(4), stack2d.WithShift(9))
}

func TestWithRelaxationBudget(t *testing.T) {
	for _, k := range []int64{0, 10, 100, 10000} {
		s := stack2d.New[int](stack2d.WithRelaxation(k), stack2d.WithExpectedThreads(4))
		if got := s.K(); got > k && k >= 3 {
			t.Errorf("WithRelaxation(%d): realised K = %d exceeds budget", k, got)
		}
	}
}

func TestWithRelaxationZeroIsStrict(t *testing.T) {
	s := stack2d.New[uint64](stack2d.WithRelaxation(0))
	if s.K() != 0 {
		t.Fatalf("K = %d, want 0", s.K())
	}
	h := s.NewHandle()
	for v := uint64(1); v <= 100; v++ {
		h.Push(v)
	}
	for want := uint64(100); want >= 1; want-- {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with width -1 did not panic")
		}
	}()
	stack2d.New[int](stack2d.WithWidth(-1))
}

func TestNewWithConfigError(t *testing.T) {
	if _, err := stack2d.NewWithConfig[int](stack2d.Config{}); err == nil {
		t.Fatal("NewWithConfig accepted zero config")
	}
	s, err := stack2d.NewWithConfig[int](stack2d.Config{Width: 2, Depth: 4, Shift: 4})
	if err != nil || s == nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestHandleRoundTrip(t *testing.T) {
	s := stack2d.New[string](stack2d.WithExpectedThreads(1))
	h := s.NewHandle()
	h.Push("a")
	h.Push("b")
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	seen := map[string]bool{}
	for i := 0; i < 2; i++ {
		v, ok := h.Pop()
		if !ok {
			t.Fatal("premature empty")
		}
		seen[v] = true
	}
	if !seen["a"] || !seen["b"] {
		t.Fatalf("values lost: %v", seen)
	}
	if !s.Empty() {
		t.Fatal("stack not empty after popping everything")
	}
}

func TestHandleTryPop(t *testing.T) {
	s := stack2d.New[int](stack2d.WithExpectedThreads(1))
	h := s.NewHandle()
	if _, ok := h.TryPop(); ok {
		t.Fatal("TryPop on empty succeeded")
	}
	h.Push(5)
	if v, ok := h.TryPop(); !ok || v != 5 {
		t.Fatalf("TryPop = (%d,%v), want (5,true)", v, ok)
	}
}

// TestBufferedHandleTryPop: on a WithOpBuffer handle, TryPop serves the
// handle's own items the way Pop does — the newest pending push, then the
// undelivered prefetch — and makes its single window pass only when the
// handle holds none, without refilling the prefetch.
func TestBufferedHandleTryPop(t *testing.T) {
	s := stack2d.New[int](stack2d.WithExpectedThreads(1), stack2d.WithOpBuffer(16))
	h := s.NewHandle()
	h.Push(5)
	h.Push(6)
	for _, want := range []int{6, 5} {
		if v, ok := h.TryPop(); !ok || v != want {
			t.Fatalf("TryPop = (%d,%t) with Len %d, want (%d,true): the handle's newest pending push",
				v, ok, s.Len(), want)
		}
	}
	if v, ok := h.TryPop(); ok {
		t.Fatalf("TryPop on an empty stack = (%d,true)", v)
	}

	// Pop refills the prefetch; draining the published rest leaves only
	// the handle's undelivered prefetch, which TryPop must serve.
	for i := 1; i <= 40; i++ {
		s.Push(i) // pooled handles publish at once
	}
	if _, ok := h.Pop(); !ok {
		t.Fatal("Pop on a 40-item stack missed")
	}
	published := len(s.Drain())
	held := s.Len()
	if held < 1 || published+held != 39 {
		t.Fatalf("after one Pop: %d published and %d held, want 39 in all with some held", published, held)
	}
	for i := 0; i < held; i++ {
		if _, ok := h.TryPop(); !ok {
			t.Fatalf("TryPop %d of %d missed the handle's undelivered prefetch", i+1, held)
		}
	}
	if v, ok := h.TryPop(); ok || s.Len() != 0 {
		t.Fatalf("TryPop after the prefetch ran out = (%d,%t), Len %d; want a miss on an empty stack", v, ok, s.Len())
	}

	// Holding nothing, TryPop takes one item in a single pass and leaves
	// the rest published: no refill.
	for i := 1; i <= 40; i++ {
		s.Push(i)
	}
	if _, ok := h.TryPop(); !ok {
		t.Fatal("TryPop missed a 40-item window")
	}
	if got := len(s.Drain()); got != 39 {
		t.Fatalf("Drain after one TryPop returned %d values, want 39: TryPop refilled the prefetch", got)
	}
}

func TestPooledConvenienceAPI(t *testing.T) {
	s := stack2d.New[int](stack2d.WithExpectedThreads(2))
	const n = 1000
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.Push(w*n + i)
			}
		}(w)
	}
	wg.Wait()
	if got := s.Len(); got != 4*n {
		t.Fatalf("Len = %d, want %d", got, 4*n)
	}
	seen := make(map[int]bool)
	for {
		v, ok := s.Pop()
		if !ok {
			break
		}
		if seen[v] {
			t.Fatalf("value %d popped twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 4*n {
		t.Fatalf("recovered %d values, want %d", len(seen), 4*n)
	}
}

func TestDrain(t *testing.T) {
	s := stack2d.New[int]()
	for i := 0; i < 32; i++ {
		s.Push(i)
	}
	if got := len(s.Drain()); got != 32 {
		t.Fatalf("Drain returned %d items, want 32", got)
	}
}

func TestStrictStack(t *testing.T) {
	s := stack2d.NewStrict[int]()
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop on empty strict stack succeeded")
	}
	for i := 1; i <= 10; i++ {
		s.Push(i)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d, want 10", s.Len())
	}
	for want := 10; want >= 1; want-- {
		v, ok := s.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, want)
		}
	}
}

func TestConcurrentMixedHandles(t *testing.T) {
	s := stack2d.New[uint64](stack2d.WithExpectedThreads(4))
	const workers, perW = 8, 2000
	var wg sync.WaitGroup
	popped := make([][]uint64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.NewHandle()
			for i := 0; i < perW; i++ {
				h.Push(uint64(w*perW + i))
				if i%2 == 1 {
					if v, ok := h.Pop(); ok {
						popped[w] = append(popped[w], v)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]int)
	for _, vs := range popped {
		for _, v := range vs {
			seen[v]++
		}
	}
	for _, v := range s.Drain() {
		seen[v]++
	}
	if len(seen) != workers*perW {
		t.Fatalf("recovered %d distinct values, want %d", len(seen), workers*perW)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %d recovered %d times", v, n)
		}
	}
}

func TestBatchAPI(t *testing.T) {
	s := stack2d.New[int](stack2d.WithExpectedThreads(2))
	h := s.NewHandle()
	h.PushBatch([]int{1, 2, 3, 4, 5})
	if s.Len() != 5 {
		t.Fatalf("Len = %d after PushBatch, want 5", s.Len())
	}
	got := h.PopBatch(3)
	if len(got) != 3 {
		t.Fatalf("PopBatch(3) returned %d items", len(got))
	}
	rest := h.PopBatch(10)
	if len(rest) != 2 {
		t.Fatalf("PopBatch(10) returned %d items, want 2", len(rest))
	}
	seen := map[int]bool{}
	for _, v := range append(got, rest...) {
		if seen[v] {
			t.Fatalf("value %d returned twice", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("recovered %d values, want 5", len(seen))
	}
}

func TestWithRandomHopsZeroApplies(t *testing.T) {
	// Zero is a meaningful value (pure round-robin search) and must not be
	// confused with "unset".
	s := stack2d.New[int](stack2d.WithRandomHops(0))
	if got := s.Config().RandomHops; got != 0 {
		t.Fatalf("RandomHops = %d, want explicit 0", got)
	}
	d := stack2d.New[int]()
	if got := d.Config().RandomHops; got == 0 {
		t.Fatalf("default RandomHops = 0; expected the paper's hybrid default")
	}
}

func TestWithExpectedThreadsScalesWidth(t *testing.T) {
	s4 := stack2d.New[int](stack2d.WithExpectedThreads(4))
	s8 := stack2d.New[int](stack2d.WithExpectedThreads(8))
	if s4.Config().Width != 16 || s8.Config().Width != 32 {
		t.Fatalf("width 4P rule broken: %d / %d", s4.Config().Width, s8.Config().Width)
	}
}

func TestInterfaceCompliance(t *testing.T) {
	// The three stack-shaped types satisfy Interface (compile-time checks
	// exist in the package; this keeps them exercised at run time too).
	var iface stack2d.Interface[int]
	iface = stack2d.NewStrict[int]()
	iface.Push(1)
	if v, ok := iface.Pop(); !ok || v != 1 {
		t.Fatalf("strict via Interface = (%d,%v)", v, ok)
	}
	s := stack2d.New[int]()
	iface = s
	iface.Push(2)
	if v, ok := iface.Pop(); !ok || v != 2 {
		t.Fatalf("pooled via Interface = (%d,%v)", v, ok)
	}
	iface = s.NewHandle()
	iface.Push(3)
	if v, ok := iface.Pop(); !ok || v != 3 {
		t.Fatalf("handle via Interface = (%d,%v)", v, ok)
	}
}
