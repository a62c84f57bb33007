package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it and the run (one repetition, one journal file) it belongs
// to. Spans stay in memory until the workload ends.
type span struct {
	Name       string
	Start, End time.Duration // since the recorder's epoch
	Parent     int           // index into recorder.spans, -1 for a root
	Run        int
}

// recorder collects spans. A nil *recorder records nothing, which is
// how the untraced pass runs the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id (-1 on a nil recorder).
func (r *recorder) start(name string, parent, run int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: time.Since(r.epoch), Parent: parent, Run: run})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		c := kids[i]
		sort.Slice(c, func(a, b int) bool { return spans[c[a]].Start < spans[c[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range c {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// rootSpan names the span of one whole operation; the calls into the
// layers are its children.
const rootSpan = "op"

// layerSeconds sums self time by span name within each run (one
// repetition, one journal file), in seconds, so that callers can take
// medians over runs. An operation's root is not a layer: its self time
// is the part of the operation no layer span explains, and unaccounted
// is, per run, that part as a share of the operation.
func layerSeconds(spans []span) (layers map[string]map[int]float64, unaccounted map[int]float64) {
	layers, unaccounted = make(map[string]map[int]float64), make(map[int]float64)
	for i, d := range selfTimes(spans) {
		s := spans[i]
		if s.Name == rootSpan {
			unaccounted[s.Run] = d.Seconds() / (s.End - s.Start).Seconds()
			continue
		}
		if layers[s.Name] == nil {
			layers[s.Name] = make(map[int]float64)
		}
		layers[s.Name][s.Run] += d.Seconds()
	}
	return layers, unaccounted
}

// spanCost times the recorder itself: what one start and end cost.
func spanCost() time.Duration {
	const n = 100000
	r := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.start("cost", -1, -1))
	}
	return time.Since(t0) / n
}

// traceOverheadFrac is what recording n spans added to a timed region
// of the given length, as a share of the region without them.
func traceOverheadFrac(n int, cost time.Duration, timed float64) float64 {
	spent := float64(n) * cost.Seconds()
	return spent / (timed - spent)
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto); each run is one thread.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{s.Name, "X", float64(s.Start.Nanoseconds()) / 1e3,
			float64((s.End - s.Start).Nanoseconds()) / 1e3, 1, s.Run})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
