package adapt

import (
	"strings"
	"testing"

	"stack2d/internal/core"
	"stack2d/internal/twodqueue"
)

// TestNewClampsToKCeiling pins that KCeiling holds from construction, not
// only from the first tick: New steps a target that starts above the
// ceiling down with the controller's own moves, before Start is ever
// called. The starting geometry is the default one for P = 2
// (width 8, depth = shift = 64, k = 1344), above a ceiling of 1024.
// MaxWidth is explicit so the policies do not depend on GOMAXPROCS.
func TestNewClampsToKCeiling(t *testing.T) {
	start := core.Config{Width: 8, Depth: 64, Shift: 64, RandomHops: 2}
	targets := map[string]func() Reconfigurable{
		"stack": func() Reconfigurable { return core.MustNew[int](start) },
		"queue": func() Reconfigurable { return twodqueue.MustNew[int](start) },
	}
	for name, mk := range targets {
		t.Run(name, func(t *testing.T) {
			// Shallower depth is the first move: k is linear in depth and
			// the change needs no migration.
			target := mk()
			if _, err := New(target, Policy{KCeiling: 1024, MaxWidth: 16}); err != nil {
				t.Fatal(err)
			}
			if got, want := target.Config(), (core.Config{Width: 8, Depth: 32, Shift: 32, RandomHops: 2}); got != want {
				t.Fatalf("geometry after New = %+v (k=%d), want %+v (k=%d)", got, got.K(), want, want.K())
			}

			// With depth pinned at its minimum the clamp narrows width.
			target = mk()
			if _, err := New(target, Policy{KCeiling: 1024, MaxWidth: 16, MinDepth: 64}); err != nil {
				t.Fatal(err)
			}
			if got, want := target.Config(), (core.Config{Width: 4, Depth: 64, Shift: 64, RandomHops: 2}); got != want {
				t.Fatalf("geometry after New = %+v (k=%d), want %+v (k=%d)", got, got.K(), want, want.K())
			}

			// A ceiling the policy's minimum geometry cannot meet is an
			// error, not a controller that starts in violation.
			_, err := New(mk(), Policy{KCeiling: 1024, MaxWidth: 16, MinDepth: 64, MinWidth: 8})
			if err == nil || !strings.Contains(err.Error(), "KCeiling") {
				t.Fatalf("New with an unreachable ceiling: err = %v, want a KCeiling error", err)
			}

			// A target already under the ceiling is left alone.
			target = mk()
			if _, err := New(target, Policy{KCeiling: 2048, MaxWidth: 16}); err != nil {
				t.Fatal(err)
			}
			if got := target.Config(); got != start {
				t.Fatalf("geometry under the ceiling changed to %+v", got)
			}
		})
	}
}
