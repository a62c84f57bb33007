// Package telemetry is the repo's stdlib-only observability layer: a
// named metrics registry (counters, gauges, fixed-bucket histograms,
// single-label counter vectors), Prometheus text-format exposition, an
// operational HTTP endpoint bundling /metrics and net/http/pprof, span
// timers for phase-level tracing, and a shared log/slog setup helper
// for the CLI binaries.
//
// Every metric type is atomic, safe for concurrent use, and nil-safe:
// calling methods on a nil *Counter, *Gauge, *Histogram, or
// *LabeledCounter is a no-op, so hot paths can be instrumented
// unconditionally and pay (almost) nothing when no registry is wired.
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// desc is the identity of a metric inside a registry.
type desc struct {
	name string
	help string
}

// Counter is a monotonically increasing metric.
type Counter struct {
	d desc
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	d desc
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// SetMax raises the gauge to n if n is larger (a high-water mark).
func (g *Gauge) SetMax(n int64) {
	if g == nil {
		return
	}
	for {
		old := g.v.Load()
		if n <= old || g.v.CompareAndSwap(old, n) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: bounds are upper bucket edges, observations land in the first
// bucket whose bound is >= the value, and everything above the last
// bound lands in the implicit +Inf bucket.
type Histogram struct {
	d      desc
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// DurationBuckets is the default latency bucket ladder (seconds),
// spanning sub-microsecond check evaluation to multi-second loads.
var DurationBuckets = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns per-bucket (non-cumulative) counts.
func (h *Histogram) snapshot() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Span is a one-shot timer feeding a latency histogram. The zero Span
// (and any span over a nil histogram) is inert and does not even read
// the clock, so instrumentation costs nothing when telemetry is off.
type Span struct {
	h  *Histogram
	t0 time.Time
}

// StartSpan begins timing into h; End records the elapsed seconds.
func StartSpan(h *Histogram) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now()}
}

// End records the span's duration. Safe to call on the zero Span.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.ObserveSince(s.t0)
}

// DefaultMaxLabelValues is how many distinct label values a
// LabeledCounter tracks before routing new values into OverflowLabel.
const DefaultMaxLabelValues = 1024

// OverflowLabel is the bucket that absorbs label values past the
// cardinality limit, so attacker- or input-controlled labels (e.g.
// per-AS keys) cannot grow a counter vector without bound.
const OverflowLabel = "_other"

// LabeledCounter is a counter vector over one label dimension (e.g.
// parse errors per source registry). Children are created on first
// use and live forever. Distinct label values are capped (default
// DefaultMaxLabelValues); past the cap, new values land in the
// OverflowLabel child.
type LabeledCounter struct {
	d     desc
	label string
	limit int

	mu       sync.RWMutex
	children map[string]*atomic.Int64
}

// Add adds n to the child counter for the label value.
func (c *LabeledCounter) Add(labelValue string, n int64) {
	if c == nil || n < 0 {
		return
	}
	c.child(labelValue).Add(n)
}

// Inc adds one to the child counter for the label value.
func (c *LabeledCounter) Inc(labelValue string) { c.Add(labelValue, 1) }

// Value returns the child counter's current value.
func (c *LabeledCounter) Value(labelValue string) int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	if v, ok := c.children[labelValue]; ok {
		return v.Load()
	}
	return 0
}

// Values returns a copy of every child's value, keyed by label value.
func (c *LabeledCounter) Values() map[string]int64 {
	if c == nil {
		return nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make(map[string]int64, len(c.children))
	for k, v := range c.children {
		out[k] = v.Load()
	}
	return out
}

func (c *LabeledCounter) child(labelValue string) *atomic.Int64 {
	c.mu.RLock()
	v, ok := c.children[labelValue]
	c.mu.RUnlock()
	if ok {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.children[labelValue]; ok {
		return v
	}
	if c.limit > 0 && len(c.children) >= c.limit && labelValue != OverflowLabel {
		// Cardinality cap reached: fold this value into the overflow
		// bucket (which may itself be the limit+1-th child).
		if v, ok := c.children[OverflowLabel]; ok {
			return v
		}
		labelValue = OverflowLabel
	}
	v = new(atomic.Int64)
	c.children[labelValue] = v
	return v
}
