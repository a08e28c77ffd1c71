package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"stack2d/internal/adapt"
	"stack2d/internal/engine"
	"stack2d/internal/obs"
)

// obsPlane wires the observability plane (DESIGN.md §8) into the native
// adaptive run: a pull-based metrics registry served at -http (with
// /debug/vars and /debug/pprof alongside /metrics), and a bounded structured
// event ring drained to -trace as JSONL when the run finishes. It is nil
// when neither flag is given, and every method is nil-safe, so the demo
// code calls the hooks unconditionally. The CSV time series (-csv) is
// untouched — the plane is an additional surface, not a replacement.
type obsPlane struct {
	reg       *obs.Registry
	ring      *obs.Ring
	srv       *http.Server
	lis       net.Listener
	tracePath string
	hold      time.Duration
}

// newObsPlane builds the plane and, when addr is non-empty, starts serving
// immediately so /metrics is curl-able while the experiments run. hold
// keeps the server up that much longer after the experiments finish (handy
// for scraping the final geometry; 0 shuts it down at exit).
func newObsPlane(addr, tracePath string, hold time.Duration) *obsPlane {
	if addr == "" && tracePath == "" {
		return nil
	}
	p := &obsPlane{reg: obs.NewRegistry(), ring: obs.NewRing(4096), tracePath: tracePath, hold: hold}
	obs.RegisterRing(p.reg, p.ring)
	if addr != "" {
		p.reg.PublishExpvar("stack2d")
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			fatal("-http: %v", err)
		}
		p.lis = lis
		p.srv = &http.Server{Handler: obs.NewMux(p.reg)}
		go p.srv.Serve(lis)
		fmt.Printf("# observability: serving /metrics, /debug/vars and /debug/pprof on http://%s\n", lis.Addr())
	}
	return p
}

// instrument attaches the structural tracer and bridges the structure's
// counters into the registry under the given name. Call before
// SetPlacement so the construction placement event lands in the ring too.
func (p *obsPlane) instrument(structure string, t nativeTarget) {
	if p == nil {
		return
	}
	t.SetObserver(obs.StructTracer{Structure: structure, Ring: p.ring})
	obs.RegisterStructure(p.reg, structure, t, nil)
}

// instrumentSwitcher wires the hot-swap engine (-backend auto) into the
// plane: every completed backend exchange lands in the event ring as a
// backend-swap event, and the swap count plus the cumulative migration
// displacement are exported as engine-labelled metrics. The switcher's
// per-structure counters stay with the backends themselves; the plane
// only observes the exchanges.
func (p *obsPlane) instrumentSwitcher(sw *engine.Switcher[uint64]) {
	if p == nil {
		return
	}
	tracer := obs.SwapTracer{Structure: "engine", Ring: p.ring}
	sw.SetOnSwap(tracer.ObserveSwap)
	obs.RegisterSwitcher(p.reg, "engine", sw)
}

// instrumentController attaches the tick tracer to the native controller so
// every decision (geometry, rates, action) lands in the event ring.
func (p *obsPlane) instrumentController(ctrl *adapt.Controller, structure string) {
	if p == nil {
		return
	}
	ctrl.SetObserver(obs.TickTracer{Structure: structure, Ring: p.ring})
}

// finish drains the ring to -trace, honours -hold, and shuts the server
// down. Called once after all experiments, before the exit-status decision.
func (p *obsPlane) finish() {
	if p == nil {
		return
	}
	if p.tracePath != "" {
		f, err := os.Create(p.tracePath)
		if err != nil {
			fatal("-trace: %v", err)
		}
		if err := p.ring.WriteJSONL(f); err != nil {
			f.Close()
			fatal("-trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatal("-trace: %v", err)
		}
		kept := p.ring.Emitted() - p.ring.Dropped()
		fmt.Printf("\ntrace: %d events written to %s (%d emitted, %d overwritten by the bounded ring)\n",
			kept, p.tracePath, p.ring.Emitted(), p.ring.Dropped())
	}
	if p.srv != nil {
		if p.hold > 0 {
			fmt.Printf("holding the metrics endpoint on http://%s for %v (ctrl-C to stop early)\n", p.lis.Addr(), p.hold)
			time.Sleep(p.hold)
		}
		p.srv.Close()
	}
}
