package stack2d_test

import (
	"sync"
	"testing"

	"stack2d"
)

// eventLog is a concurrency-safe StructObserver: the adaptive controller
// may reconfigure from its own goroutine while the test also acts.
type eventLog struct {
	mu     sync.Mutex
	events []stack2d.StructEvent
}

func (l *eventLog) ObserveStruct(ev stack2d.StructEvent) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) kinds() map[stack2d.StructEventKind]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[stack2d.StructEventKind]int)
	for _, ev := range l.events {
		m[ev.Kind]++
	}
	return m
}

// TestAdaptiveAppliesObserverOption pins the constructor wiring: an
// observer given to NewAdaptive must see the construction placement event
// (observer is installed before placement) and any later reconfiguration —
// a gap an external consumer once hit, since NewAdaptiveWithConfig cannot
// know about builder options.
func TestAdaptiveAppliesObserverOption(t *testing.T) {
	l := &eventLog{}
	a := stack2d.NewAdaptive[int](
		stack2d.WithExpectedThreads(2),
		stack2d.WithObserver(l),
		stack2d.WithPlacement(stack2d.LocalFirst(), 2),
	)
	a.Close() // stop the controller so the manual reconfig below sticks

	if got := l.kinds()[stack2d.StructPlacement]; got == 0 {
		t.Fatalf("observer missed the construction placement event (kinds: %v)", l.kinds())
	}
	cfg := a.Config()
	cfg.Width++
	if err := a.Reconfigure(cfg); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := l.kinds()[stack2d.StructReconfig]; got == 0 {
		t.Fatalf("observer missed the manual reconfiguration (kinds: %v)", l.kinds())
	}
}

// TestAdaptiveQueueAppliesObserverOption is the queue-side twin.
func TestAdaptiveQueueAppliesObserverOption(t *testing.T) {
	l := &eventLog{}
	q := stack2d.NewAdaptiveQueue[int](
		stack2d.WithExpectedThreads(2),
		stack2d.WithObserver(l),
		stack2d.WithPlacement(stack2d.LocalFirst(), 2),
	)
	q.Close()

	if got := l.kinds()[stack2d.StructPlacement]; got == 0 {
		t.Fatalf("observer missed the construction placement event (kinds: %v)", l.kinds())
	}
	cfg := q.Config()
	cfg.Width++
	if err := q.Reconfigure(cfg); err != nil {
		t.Fatalf("Reconfigure: %v", err)
	}
	if got := l.kinds()[stack2d.StructReconfig]; got == 0 {
		t.Fatalf("observer missed the manual reconfiguration (kinds: %v)", l.kinds())
	}
}
