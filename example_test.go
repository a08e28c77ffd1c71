package stack2d_test

import (
	"fmt"

	"stack2d"
)

// The basic lifecycle: build, push, pop through a handle.
func ExampleNew() {
	s := stack2d.New[string](stack2d.WithExpectedThreads(1))
	h := s.NewHandle()
	h.Push("a")
	h.Push("b")
	v, ok := h.Pop()
	fmt.Println(v, ok)
	// Output: b true
}

// Choosing the structure by relaxation budget: the realised bound K()
// never exceeds the requested k.
func ExampleWithRelaxation() {
	s := stack2d.New[int](
		stack2d.WithRelaxation(100),
		stack2d.WithExpectedThreads(4),
	)
	fmt.Println(s.K() <= 100)
	// Output: true
}

// A width-1 stack is strict LIFO (k = 0), useful when exactness matters
// but the same API is wanted.
func ExampleWithRelaxation_strict() {
	s := stack2d.New[int](stack2d.WithRelaxation(0))
	h := s.NewHandle()
	h.Push(1)
	h.Push(2)
	h.Push(3)
	a, _ := h.Pop()
	b, _ := h.Pop()
	c, _ := h.Pop()
	fmt.Println(a, b, c, s.K())
	// Output: 3 2 1 0
}

// Batched operations amortise search and CAS; order within the batch
// matches a loop of singleton calls.
func ExampleHandle_PushBatch() {
	s := stack2d.New[int](stack2d.WithRelaxation(0)) // strict, so order is visible
	h := s.NewHandle()
	h.PushBatch([]int{1, 2, 3})
	fmt.Println(h.PopBatch(3))
	// Output: [3 2 1]
}

// The strict Treiber stack for comparison or exact use-cases.
func ExampleNewStrict() {
	s := stack2d.NewStrict[int]()
	s.Push(10)
	s.Push(20)
	v, _ := s.Pop()
	fmt.Println(v)
	// Output: 20
}

// The relaxed FIFO queue built with the same window technique.
func ExampleNewQueue() {
	q := stack2d.NewQueue[string](stack2d.WithExpectedThreads(1))
	h := q.NewHandle()
	h.Enqueue("first")
	h.Enqueue("second")
	v, ok := h.Dequeue()
	fmt.Println(v, ok, q.Len())
	// Output: first true 1
}

// The strict Michael–Scott queue baseline.
func ExampleNewStrictQueue() {
	q := stack2d.NewStrictQueue[int]()
	q.Enqueue(1)
	q.Enqueue(2)
	a, _ := q.Dequeue()
	b, _ := q.Dequeue()
	fmt.Println(a, b)
	// Output: 1 2
}
