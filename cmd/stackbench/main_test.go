package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"stack2d/internal/harness"
)

// smokeSweep is the smallest sweep that still runs every point: 2 ms per
// run, one repeat, a 256-item prefill, quality on.
func smokeSweep() harness.SweepConfig {
	return harness.SweepConfig{
		Workload: harness.Workload{Workers: 2, Duration: 2 * time.Millisecond, PushRatio: 0.5, Prefill: 256, Seed: 1},
		Repeats:  1,
		Quality:  true,
	}
}

func TestSweepsRender(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*bytes.Buffer) error
		want []string
	}{
		{"figure1", func(b *bytes.Buffer) error { return runFigure1(b, smokeSweep()) }, []string{"2D-stack", "k-robin", "k-segment"}},
		{"figure2", func(b *bytes.Buffer) error { return runFigure2(b, smokeSweep()) }, []string{"random-c2", "elimination", "treiber"}},
		{"queue", func(b *bytes.Buffer) error { return runQueueSweep(b, smokeSweep()) }, []string{"ms-queue", "2D-queue"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := c.run(&out); err != nil {
				t.Fatal(err)
			}
			for _, w := range c.want {
				if !strings.Contains(out.String(), w) {
					t.Fatalf("output lacks %q:\n%s", w, out.String())
				}
			}
		})
	}
}

func TestAblationsRender(t *testing.T) {
	for _, name := range harness.AblationNames() {
		t.Run(name, func(t *testing.T) {
			cases, err := harness.AblationCases(name, 2)
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := runAblation(&out, name, smokeSweep()); err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				if !strings.Contains(out.String(), c.Label) {
					t.Fatalf("output lacks case %q:\n%s", c.Label, out.String())
				}
			}
		})
	}
}

func TestUnknownAblationFails(t *testing.T) {
	var out bytes.Buffer
	if err := runAblation(&out, "batching", smokeSweep()); err == nil {
		t.Fatal("unknown ablation name accepted")
	}
}
