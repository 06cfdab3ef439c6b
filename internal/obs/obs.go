// Package obs is the runtime observability layer: dependency-free
// counters, gauges, and duration histograms cheap enough for the serving
// hot path, a structured event logger, and a Prometheus-text exposition
// endpoint. The paper's whole method is profiling-guided — it decides
// what runs where by measuring the offline Z = U×V phase, the online
// Eq. (8) phase, reconstruction, and inter-node transfer — so the
// serving stack publishes exactly those phases as metrics instead of
// relying on ad-hoc log lines.
//
// Hot-path contract: Observe/Inc/Add/Set are single atomic operations on
// preallocated storage and never allocate, so instrumenting the wire
// serving path does not move its allocs/op (the BENCH_wire.json
// baseline). Scrape-side work (quantiles, text rendering) happens only
// when /metrics is read.
package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the value by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metric kinds, which double as the Prometheus TYPE strings.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// entry is one registered metric: a family name, an optional fixed label
// set (the `phase="gemm"` inside the braces), and exactly one backing
// store.
type entry struct {
	family string
	labels string // contents of the braces, "" when unlabeled
	help   string
	kind   string

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64 // read-only collector (counter or gauge kind)
}

// Registry holds named metrics and renders them in the Prometheus text
// format. Metric constructors are get-or-create: asking for an existing
// name+labels returns the same instance (and panics if the kind
// differs), so package-level instrumentation can be initialized from
// several places without coordination.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byKey   map[string]*entry
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{byKey: make(map[string]*entry)}
}

// Default is the process-wide registry; package-level instrumentation
// registers here and cmd binaries expose it via ServeDebug.
var Default = newRegistry()

// splitName separates `family{labels}` into its parts. Panics on a
// malformed name — registration happens at init time, so this is a
// programming error, not an operational one.
func splitName(name string) (family, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	if !strings.HasSuffix(name, "}") {
		panic(fmt.Sprintf("obs: malformed metric name %q", name))
	}
	return name[:i], name[i+1 : len(name)-1]
}

// register returns the existing entry for name or creates one via make.
func (r *Registry) register(name, help, kind string, make func(*entry)) *entry {
	family, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.byKey[name]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, e.kind))
		}
		return e
	}
	e := &entry{family: family, labels: labels, help: help, kind: kind}
	make(e)
	r.entries = append(r.entries, e)
	r.byKey[name] = e
	return e
}

// Counter returns the counter registered under name (which may carry a
// fixed label set, e.g. `psml_requests_total{path="wire"}`), creating it
// on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, func(e *entry) { e.counter = &Counter{} }).counter
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, func(e *entry) { e.gauge = &Gauge{} }).gauge
}

// Histogram returns the duration histogram registered under name with the
// default bounds, creating it on first use.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, kindHistogram, func(e *entry) { e.hist = NewHistogram(nil) }).hist
}

// FuncCounter registers a read-only collector rendered as a counter:
// fn is called at scrape time. For totals owned by packages that should
// not depend on obs (comm byte counts, tensor pool hits).
func (r *Registry) FuncCounter(name, help string, fn func() float64) {
	r.register(name, help, kindCounter, func(e *entry) { e.fn = fn })
}

// FuncGauge registers a read-only collector rendered as a gauge.
func (r *Registry) FuncGauge(name, help string, fn func() float64) {
	r.register(name, help, kindGauge, func(e *entry) { e.fn = fn })
}

// writeNum renders a float the way Prometheus expects (integers without
// an exponent, everything else in shortest form).
func writeNum(w io.Writer, v float64) {
	if v == float64(int64(v)) {
		fmt.Fprintf(w, "%d", int64(v))
		return
	}
	fmt.Fprintf(w, "%g", v)
}

// sample writes one exposition line: name, optional label block, value.
func sample(w io.Writer, name, labels string, v float64) {
	io.WriteString(w, name)
	if labels != "" {
		io.WriteString(w, "{")
		io.WriteString(w, labels)
		io.WriteString(w, "}")
	}
	io.WriteString(w, " ")
	writeNum(w, v)
	io.WriteString(w, "\n")
}

// joinLabels merges a fixed label block with one extra label (the
// histogram `le`).
func joinLabels(fixed, extra string) string {
	if fixed == "" {
		return extra
	}
	return fixed + "," + extra
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format, grouping samples by family (HELP/TYPE emitted once
// per family, in first-registration order).
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()

	// Group by family, preserving first-registration order.
	var families []string
	byFamily := make(map[string][]*entry)
	for _, e := range entries {
		if _, ok := byFamily[e.family]; !ok {
			families = append(families, e.family)
		}
		byFamily[e.family] = append(byFamily[e.family], e)
	}
	for _, fam := range families {
		group := byFamily[fam]
		if group[0].help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", fam, group[0].help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", fam, group[0].kind)
		for _, e := range group {
			switch {
			case e.counter != nil:
				sample(w, fam, e.labels, float64(e.counter.Value()))
			case e.gauge != nil:
				sample(w, fam, e.labels, float64(e.gauge.Value()))
			case e.fn != nil:
				sample(w, fam, e.labels, e.fn())
			case e.hist != nil:
				snap := e.hist.snapshot()
				cum := uint64(0)
				for i, c := range snap.counts {
					cum += c
					sample(w, fam+"_bucket", joinLabels(e.labels, e.hist.leLabels[i]), float64(cum))
				}
				sample(w, fam+"_sum", e.labels, snap.sum.Seconds())
				sample(w, fam+"_count", e.labels, float64(snap.count))
			}
		}
	}
}
