// Package trace is the repo's stdlib-only structured tracing and
// profiling layer: span-per-operation tracing with parent/child links
// across the mirror→verify→serve chain, per-stage sampling so hot
// paths (route execution, API requests) pay almost nothing, a bounded
// ring buffer retaining the most recent and the slowest traces, export
// as plain JSON and as Chrome trace-event JSON (loadable in Perfetto),
// space-saving top-K sketches for heavy-hitter profiling, and a
// freshness/SLO watchdog the serving layer consults for /healthz.
//
// Everything is nil-safe: a nil *Tracer never samples, a nil *Span
// swallows Child/Set/End, and a nil *TopK or *Watchdog is inert — so
// instrumentation is wired unconditionally and costs a pointer check
// when tracing is off.
package trace

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation inside a trace. Spans form a tree: the
// root span is created by Tracer.Start, children by Span.Child. Ending
// the root span finalizes the trace and offers it to the tracer's
// retention buffers.
type Span struct {
	tr     *Trace
	id     uint32
	parent uint32 // 0 for the root
	name   string
	start  time.Time
	durNS  atomic.Int64 // 0 while open
	attrs  []Attr       // guarded by tr.mu
}

// Trace is one sampled operation tree, identified by a process-unique
// ID and grouped under a stage ("ingest", "mirror", "verify", ...).
type Trace struct {
	tracer *Tracer
	id     uint64
	stage  string
	start  time.Time

	mu    sync.Mutex
	spans []*Span
}

// ID returns the trace's process-unique identifier.
func (t *Trace) ID() uint64 { return t.id }

// Stage returns the stage the trace was started under.
func (t *Trace) Stage() string { return t.stage }

// Start returns when the root span started.
func (t *Trace) Start() time.Time { return t.start }

// Duration returns the root span's duration (0 while still open).
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return 0
	}
	return time.Duration(t.spans[0].durNS.Load())
}

// Config tunes a Tracer. The zero value samples every operation.
type Config struct {
	// Sample maps a stage to its 1-in-N sampling rate; stages not
	// listed trace every operation. N <= 1 means always.
	Sample map[string]int
}

// ParseSamples parses a "stage=N,stage=N" flag value into a Config
// sample map (e.g. "verify=1024,compile=16,api=64"). Empty input
// yields an empty, non-nil map.
func ParseSamples(spec string) (map[string]int, error) {
	out := make(map[string]int)
	if spec == "" {
		return out, nil
	}
	for _, part := range strings.Split(spec, ",") {
		stage, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || stage == "" {
			return nil, fmt.Errorf("trace: bad sample spec %q (want stage=N)", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("trace: bad sample rate %q for stage %q", val, stage)
		}
		out[stage] = n
	}
	return out, nil
}

// stageState carries one stage's sampling counter and statistics.
type stageState struct {
	sampleN   int           // from Config.Sample; fixed at creation
	ops       atomic.Uint64 // operations offered (sampled or not)
	sampled   atomic.Uint64 // traces started
	finished  atomic.Uint64 // traces whose root span ended
	dropped   atomic.Uint64 // spans dropped by maxSpans
	slowestNS atomic.Int64  // all-time slowest root duration
}

// Tracer samples operations into traces and retains a bounded set of
// them for the /debug/trace endpoints. Safe for concurrent use.
type Tracer struct {
	sample map[string]int
	ids    atomic.Uint64

	// Retention bounds, set by New and never changed outside the ring
	// tests: finished traces kept by the recency ring and by the slowest
	// set (ranked by root-span duration; 0 keeps none), and the spans one
	// trace may hold — Child returns nil past it and counts the drop.
	recentCap, slowCap, maxSpans int

	// stages is a copy-on-write map: readers load it lock-free (Start
	// runs on every operation of every instrumented hot path), and
	// stageMu serializes the rare writes that add a new stage.
	stageMu sync.Mutex
	stages  atomic.Pointer[map[string]*stageState]

	ringMu    sync.Mutex
	recent    []*Trace // ring; recentPos is the next write slot
	recentPos int
	slow      []*Trace // unordered; evict-min on overflow

	topkMu sync.Mutex
	topks  map[string]*TopK
}

// New creates a Tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{
		sample:    cfg.Sample,
		recentCap: 64, slowCap: 32, maxSpans: 512,
		topks: make(map[string]*TopK),
	}
	t.stages.Store(&map[string]*stageState{})
	return t
}

func (t *Tracer) stage(name string) *stageState {
	if st, ok := (*t.stages.Load())[name]; ok {
		return st
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	old := *t.stages.Load()
	if st, ok := old[name]; ok {
		return st
	}
	st := &stageState{sampleN: max(t.sample[name], 1)}
	next := make(map[string]*stageState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = st
	t.stages.Store(&next)
	return st
}

// Start offers one operation to the stage's sampler. It returns the
// trace's root span, or nil when the operation was not sampled (or the
// tracer is nil) — all Span methods tolerate nil.
func (t *Tracer) Start(stage, name string) *Span {
	if t == nil {
		return nil
	}
	st := t.stage(stage)
	if (st.ops.Add(1)-1)%uint64(st.sampleN) != 0 {
		return nil
	}
	return t.root(st, stage, name, time.Now())
}

func (t *Tracer) root(st *stageState, stage, name string, start time.Time) *Span {
	st.sampled.Add(1)
	tr := &Trace{tracer: t, id: t.ids.Add(1), stage: stage, start: start}
	sp := &Span{tr: tr, id: 1, name: name, start: start}
	tr.spans = append(tr.spans, sp)
	return sp
}

// Period returns the stage's 1-in-N sampling period (at least 1), for
// a hot path that keeps the sampling counter on memory it owns
// instead of sharing the stage's: it takes one operation in Period
// with StartSampled and reports all of them with Offered. A nil tracer
// has period 0: nothing to take.
func (t *Tracer) Period(stage string) uint64 {
	if t == nil {
		return 0
	}
	return uint64(t.stage(stage).sampleN)
}

// StartSampled starts a trace, begun at start, for an operation the
// caller's own sampler took; the operation is counted by Offered.
func (t *Tracer) StartSampled(stage, name string, start time.Time) *Span {
	return t.root(t.stage(stage), stage, name, start)
}

// Offered counts n operations the caller's own sampler was offered,
// taken or not, so the stage's ops stay exact.
func (t *Tracer) Offered(stage string, n uint64) {
	if t != nil && n > 0 {
		t.stage(stage).ops.Add(n)
	}
}

// StartOrChild returns a child of parent when parent is non-nil,
// otherwise a new root span on t under the given stage. It lets a
// callee participate in its caller's trace when one exists and still
// be traceable standalone.
func StartOrChild(t *Tracer, parent *Span, stage, name string) *Span {
	if parent != nil {
		return parent.Child(name)
	}
	return t.Start(stage, name)
}

// Child starts a nested span. Returns nil (and counts the drop) once
// the trace's span cap is reached.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	tr := s.tr
	tr.mu.Lock()
	if len(tr.spans) >= tr.tracer.maxSpans {
		tr.mu.Unlock()
		tr.tracer.stage(tr.stage).dropped.Add(1)
		return nil
	}
	sp := &Span{tr: tr, id: uint32(len(tr.spans) + 1), parent: s.id, name: name, start: time.Now()}
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// Set attaches a string attribute and returns the span for chaining.
func (s *Span) Set(key, value string) *Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tr.mu.Unlock()
	return s
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) *Span {
	return s.Set(key, strconv.FormatInt(v, 10))
}

// End records the span's duration. Ending the root span finalizes the
// trace: its stats fold into the stage and the trace is offered to the
// recency ring and the slowest set. Safe on a nil span; ending twice
// keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	if d <= 0 {
		d = 1
	}
	if !s.durNS.CompareAndSwap(0, int64(d)) {
		return
	}
	if s.id == 1 {
		s.tr.tracer.finish(s.tr, d)
	}
}

// finish retains a completed trace.
func (t *Tracer) finish(tr *Trace, rootDur time.Duration) {
	st := t.stage(tr.stage)
	st.finished.Add(1)
	for {
		old := st.slowestNS.Load()
		if int64(rootDur) <= old || st.slowestNS.CompareAndSwap(old, int64(rootDur)) {
			break
		}
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	if t.recentCap > 0 {
		if len(t.recent) < t.recentCap {
			t.recent = append(t.recent, tr)
			t.recentPos = len(t.recent) % t.recentCap
		} else {
			t.recent[t.recentPos] = tr
			t.recentPos = (t.recentPos + 1) % t.recentCap
		}
	}
	if t.slowCap > 0 {
		if len(t.slow) < t.slowCap {
			t.slow = append(t.slow, tr)
			return
		}
		minI := 0
		for i, s := range t.slow {
			if s.Duration() < t.slow[minI].Duration() {
				minI = i
			}
		}
		if rootDur > t.slow[minI].Duration() {
			t.slow[minI] = tr
		}
	}
}

// Recent returns the retained recent traces, newest first.
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	defer t.ringMu.Unlock()
	n := len(t.recent)
	out := make([]*Trace, 0, n)
	// recentPos is the next write slot, so recentPos-1 is the newest
	// entry; walk backwards from there.
	for i := 0; i < n; i++ {
		out = append(out, t.recent[((t.recentPos-1-i)%n+n)%n])
	}
	return out
}

// Slowest returns the retained slowest traces, slowest first.
func (t *Tracer) Slowest() []*Trace {
	if t == nil {
		return nil
	}
	t.ringMu.Lock()
	out := make([]*Trace, len(t.slow))
	copy(out, t.slow)
	t.ringMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration() > out[j].Duration() })
	return out
}

// StageSummary is one stage's tracing statistics.
type StageSummary struct {
	Stage     string  `json:"stage"`
	SampleN   int     `json:"sample_1_in_n"`
	Ops       uint64  `json:"ops"`
	Sampled   uint64  `json:"sampled"`
	Finished  uint64  `json:"finished"`
	Dropped   uint64  `json:"dropped_spans"`
	SlowestUS float64 `json:"slowest_us"`
}

// Summary returns per-stage statistics, sorted by stage name.
func (t *Tracer) Summary() []StageSummary {
	if t == nil {
		return nil
	}
	stages := *t.stages.Load()
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]StageSummary, 0, len(names))
	for _, n := range names {
		st := stages[n]
		out = append(out, StageSummary{
			Stage:     n,
			SampleN:   st.sampleN,
			Ops:       st.ops.Load(),
			Sampled:   st.sampled.Load(),
			Finished:  st.finished.Load(),
			Dropped:   st.dropped.Load(),
			SlowestUS: float64(st.slowestNS.Load()) / 1e3,
		})
	}
	return out
}

// RegisterTopK publishes a heavy-hitter sketch under the tracer's
// /debug/trace/topk endpoint. Registration is idempotent by name: the
// first sketch wins and is returned.
func (t *Tracer) RegisterTopK(name string, tk *TopK) *TopK {
	if t == nil {
		return tk
	}
	t.topkMu.Lock()
	defer t.topkMu.Unlock()
	if old, ok := t.topks[name]; ok {
		return old
	}
	t.topks[name] = tk
	return tk
}

// TopKSketch returns the sketch registered under name, or nil.
func (t *Tracer) TopKSketch(name string) *TopK {
	if t == nil {
		return nil
	}
	t.topkMu.Lock()
	defer t.topkMu.Unlock()
	return t.topks[name]
}

// topkNames returns the registered sketch names, sorted.
func (t *Tracer) topkNames() []string {
	t.topkMu.Lock()
	defer t.topkMu.Unlock()
	names := make([]string, 0, len(t.topks))
	for n := range t.topks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
