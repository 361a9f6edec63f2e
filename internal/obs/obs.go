// Package obs is a dependency-free metrics core for the serving stack: a
// registry of counters and gauges (each optionally with labeled children)
// and histograms that renders the Prometheus text exposition format
// v0.0.4 through one renderer, WriteFamilies, and reads it back through
// one parser, ParseText. It exists so ascd can export the simulator's
// paper-relevant signals — stall cycles by hazard kind, reduction-tree
// occupancy, request latency — to a standard scraper without pulling a
// client library into the module.
//
// Instruments are created through a Registry and are safe for concurrent
// use. Values that live outside the registry (pool statistics, runtime
// memory stats) are mirrored in at scrape time via OnCollect callbacks.
package obs

import (
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
)

var (
	// nameRE is the metric-name grammar this registry enforces. It is
	// deliberately stricter than Prometheus (no uppercase) so every name
	// is already in canonical exporter style.
	nameRE  = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-z_][a-z0-9_]*$`)
)

// Registry holds metric families and renders them for scraping.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: map[string]*family{}} }

// family is one metric name: its metadata and its children (one per
// distinct label-value tuple; a single unlabeled child for plain
// instruments).
type family struct {
	name   string
	help   string
	typ    string // "counter", "gauge", "histogram"
	labels []string
	bounds []float64 // histogram bucket upper bounds, ascending, finite

	mu       sync.Mutex
	children map[string]any // *Counter, *Gauge, or *Histogram, keyed by joined label values
	fn       func() float64 // value callback for NewGaugeFunc families
}

// childKeySep joins label values into a map key. Each value is escaped
// first (keyEscaper), so no value holds a bare separator and no value can
// forge another tuple's key.
const childKeySep = "\x1f"

var (
	keyEscaper   = strings.NewReplacer(`\`, `\\`, childKeySep, `\u`)
	keyUnescaper = strings.NewReplacer(`\\`, `\`, `\u`, childKeySep)
)

// childKey is the map key of one label-value tuple.
func childKey(values []string) string {
	if len(values) == 1 {
		return keyEscaper.Replace(values[0])
	}
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteString(childKeySep)
		}
		b.WriteString(keyEscaper.Replace(v))
	}
	return b.String()
}

func (r *Registry) register(name, help, typ string, labels []string, bounds []float64, fn func() float64) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, name))
		}
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bucket bounds not ascending", name))
		}
	}
	f := &family{
		name: name, help: help, typ: typ, labels: labels,
		bounds: bounds, children: map[string]any{}, fn: fn,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.families[name] = f
	return f
}

// OnCollect registers fn to run at the start of every scrape, before
// rendering. Collect callbacks mirror externally maintained values into
// instruments (Counter.Set, Gauge.Set); they must not register new
// metrics.
func (r *Registry) OnCollect(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// child returns the instrument for one label-value tuple, creating it with
// mk on first use.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; n must be non-negative.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set overwrites the counter. It exists only for OnCollect callbacks that
// mirror an externally maintained monotonic total (e.g. pool hit counts);
// normal code paths must use Inc/Add.
func (c *Counter) Set(v int64) { c.v.Store(v) }

// Value reads the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CounterVec is a counter family with labeled children.
type CounterVec struct{ f *family }

// With returns the child counter for the given label values, creating it
// on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec is a gauge family with labeled children.
type GaugeVec struct{ f *family }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// NewCounter registers an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// NewCounterVec registers a counter family with the given label names.
func (r *Registry) NewCounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labels, nil, nil)}
}

// NewGauge registers an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", nil, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// NewGaugeVec registers a gauge family with the given label names.
func (r *Registry) NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labels, nil, nil)}
}

// NewGaugeFunc registers a gauge whose value is computed by fn at every
// scrape (e.g. queue depth, goroutine count).
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", nil, nil, fn)
}

// NewHistogram registers an unlabeled histogram with the given ascending
// finite bucket upper bounds; the +Inf overflow bucket is implicit.
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	f := r.register(name, help, "histogram", nil, bounds, nil)
	return f.child(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}
