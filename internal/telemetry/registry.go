package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics. Registration is idempotent: asking for
// a name that already exists returns the existing metric (so library
// code and tests can share instruments without coordination), and
// asking for it with a different metric kind panics — that is always
// a programming error, not a runtime condition.
type Registry struct {
	mu     sync.Mutex
	byName map[string]metric
}

// metric is the registry-internal view of one instrument.
type metric interface {
	describe() desc
	promType() string
}

func (c *Counter) describe() desc          { return c.d }
func (c *Counter) promType() string        { return "counter" }
func (g *Gauge) describe() desc            { return g.d }
func (g *Gauge) promType() string          { return "gauge" }
func (h *Histogram) describe() desc        { return h.d }
func (h *Histogram) promType() string      { return "histogram" }
func (c *LabeledCounter) describe() desc   { return c.d }
func (c *LabeledCounter) promType() string { return "counter" }

// NewRegistry creates an empty registry. The name labelled the expvar
// copy of the registry and has no reader now; the parameter stays until
// bench/, which compiles against it, can move (ROADMAP item 1b).
func NewRegistry(string) *Registry {
	return &Registry{byName: make(map[string]metric)}
}

// defaultRegistry is the process-wide registry the CLI binaries use.
var defaultRegistry = NewRegistry("rpslyzer")

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter registers (or returns the existing) counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, func() metric { return &Counter{d: desc{name, help}} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, m.promType()))
	}
	return c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{d: desc{name, help}} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, m.promType()))
	}
	return g
}

// Histogram registers (or returns the existing) histogram. buckets are
// upper bounds in ascending order; nil uses DurationBuckets. A second
// registration under the same name returns the first histogram,
// ignoring the new bucket layout.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	m := r.register(name, func() metric {
		if buckets == nil {
			buckets = DurationBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		return &Histogram{
			d:      desc{name, help},
			bounds: bounds,
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	})
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, m.promType()))
	}
	return h
}

// LabeledCounter registers (or returns the existing) one-label counter
// vector.
func (r *Registry) LabeledCounter(name, help, label string) *LabeledCounter {
	m := r.register(name, func() metric {
		return &LabeledCounter{
			d:        desc{name, help},
			label:    label,
			limit:    DefaultMaxLabelValues,
			children: make(map[string]*atomic.Int64),
		}
	})
	c, ok := m.(*LabeledCounter)
	if !ok {
		panic(fmt.Sprintf("telemetry: %s already registered as a %s", name, m.promType()))
	}
	return c
}

func (r *Registry) register(name string, build func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m
	}
	m := build()
	r.byName[name] = m
	return m
}

// sortedMetrics returns the registry's metrics in name order (the
// exposition order, deterministic for tests and diffs).
func (r *Registry) sortedMetrics() []metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.byName))
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]metric, len(names))
	for i, n := range names {
		out[i] = r.byName[n]
	}
	return out
}
