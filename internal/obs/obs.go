// Package obs is Chaser's telemetry subsystem: a dependency-free metrics
// registry (atomic counters, gauges, and fixed-bucket histograms) plus
// span-based tracing with a bounded in-memory recorder.
//
// The package is built around a "disabled is free" contract mirroring the
// paper's near-zero-overhead requirement for fault-injection measurement
// (Fig. 10): every instrument is nil-receiver safe, so components hold plain
// metric pointers and a disabled configuration (nil *Registry / nil *Tracer)
// degrades every operation to a nil check — no allocation, no atomic, no
// lock. TestObsDisabledNoAlloc and BenchmarkObsOverhead (repo root) enforce
// the contract with testing.AllocsPerRun.
//
// Exporters: Prometheus text format and a JSON snapshot for metrics
// (Registry.WritePrometheus / Registry.WriteJSON), and Chrome trace-event
// JSON for spans (Tracer.WriteChromeTrace), loadable in chrome://tracing or
// https://ui.perfetto.dev. See docs/OBSERVABILITY.md for the metric catalog
// and span naming conventions.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is a named collection of metrics. Registration (Counter / Gauge /
// Histogram) takes a mutex; updates on the returned instruments are
// lock-free atomics. A nil *Registry is a valid "telemetry off" registry:
// it returns nil instruments whose methods all no-op.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// validName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* without pulling in regexp.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if alpha {
			continue
		}
		if i > 0 && c >= '0' && c <= '9' {
			continue
		}
		return false
	}
	return true
}

// check guards the creation of an instrument; a name that already has one of
// the asked kind was checked when that was created. Callers hold r.mu.
func (r *Registry) check(name, kind string) {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	if _, ok := r.counts[name]; ok && kind != "counter" {
		panic(fmt.Sprintf("obs: %q already registered as a counter", name))
	}
	if _, ok := r.gauges[name]; ok && kind != "gauge" {
		panic(fmt.Sprintf("obs: %q already registered as a gauge", name))
	}
	if _, ok := r.hists[name]; ok && kind != "histogram" {
		panic(fmt.Sprintf("obs: %q already registered as a histogram", name))
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Calls with the same name return the same instrument, so concurrent
// components share one counter. Nil registries return nil (a no-op counter).
// Panics on an invalid name or a name already registered as another kind.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		r.check(name, "counter")
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Nil registries return nil (a no-op gauge).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		r.check(name, "gauge")
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the fixed-bucket histogram registered under name,
// creating it on first use; bounds are the inclusive upper bucket bounds in
// ascending order (an implicit +Inf bucket is appended). Bounds are only
// consulted at creation; later calls with the same name reuse the existing
// buckets. Nil registries return nil (a no-op histogram).
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		r.check(name, "histogram")
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not ascending", name))
			}
		}
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// sortedNames returns the registered metric names of one kind in order.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
