package engine

import (
	"fmt"
	"testing"

	"stack2d/internal/relax"
)

// TestHandleAllocsPinned pins the steady-state allocation cost of one push
// and one pop through a relax adapter handle and through a switcher handle
// fronting the same kind of backend, at the uncontended and contended
// default geometries. Neither layer may add an allocation to the
// structure's own: 2D pushes allocate one descriptor, which embeds the
// node, and its pops nothing (core's TestOpAllocsPinned); elimination and
// Treiber pushes allocate the node and their pops nothing.
func TestHandleAllocsPinned(t *testing.T) {
	for _, c := range []struct {
		a         relax.Algorithm
		push, pop float64
	}{
		{relax.TwoDStack, 1, 0},
		{relax.EliminationStack, 1, 0},
		{relax.TreiberStack, 1, 0},
	} {
		for _, p := range []int{1, 16} {
			for _, layer := range []string{"relax", "switcher"} {
				t.Run(fmt.Sprintf("%s/p%d/%s", c.a, p, layer), func(t *testing.T) {
					b, err := relax.NewDefaultBackend[uint64](c.a, p)
					if err != nil {
						t.Fatal(err)
					}
					h := b.NewHandle()
					if layer == "switcher" {
						sw, err := New(b)
						if err != nil {
							t.Fatal(err)
						}
						h = sw.NewHandle()
					}
					var i uint64
					if got := testing.AllocsPerRun(10000, func() { h.Push(i); i++ }); got != c.push {
						t.Errorf("Push allocates %v per op, pinned at %v", got, c.push)
					}
					if got := testing.AllocsPerRun(5000, func() { h.Pop() }); got != c.pop {
						t.Errorf("Pop allocates %v per op, pinned at %v", got, c.pop)
					}
				})
			}
		}
	}
}
