package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"rpslyzer/internal/report"
	"rpslyzer/internal/verify"
)

// runConfig is what a workload child is told: where the generated
// files are and how long to measure. It carries no program setting.
type runConfig struct {
	Workload string  `json:"workload"`
	Dir      string  `json:"dir"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	// Ops, when positive, is how many operations a repetition workload
	// times, whatever the clock says: -update-golden needs one.
	Ops int `json:"ops"`
	// Trace records spans and runtime counters around every operation
	// and runs the isolated layer probes afterwards.
	Trace bool `json:"trace"`
	// Digest computes the output digests that golden.json pins.
	Digest bool `json:"digest"`
	// Smoke cuts every repetition count to one.
	Smoke     bool   `json:"smoke"`
	TracePath string `json:"trace_path"`
}

// runResult is what a workload child reports back.
type runResult struct {
	// Attempted and Failed count operations: repetitions, journal
	// files, HTTP requests and output checks alike.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Notes     []string `json:"notes,omitempty"`
	// SetupS is the untimed work before the measured region: server
	// build, warm-up repetition, cache warm-up.
	SetupS float64 `json:"setup_s"`
	// TimedS is the length of the measured region: the operations
	// themselves, without the checks between them.
	TimedS  float64            `json:"timed_s"`
	Ops     opStats            `json:"ops"`
	OpsPerS float64            `json:"ops_per_s"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Digests map[string]string  `json:"digests,omitempty"`

	gc goDelta // runtime counters over the measured region (traced runs only)
}

// check counts one correctness check; a failed one costs the run its
// "correct" verdict.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Notes) < 20 {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = make(map[string]float64)
	}
	r.Layers[name] = v
}

func (r *runResult) digest(name, sum string) {
	if r.Digests == nil {
		r.Digests = make(map[string]string)
	}
	r.Digests[name] = sum
}

// clients is the number of load goroutines and connections: the whole
// load comes from this process and never from more than two of them.
func clients() int { return min(runtime.NumCPU(), 2) }

// release drops the garbage of the last repetition and hands the pages
// back, so that each repetition starts from a small heap, as a freshly
// started daemon does.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{}
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	var err error
	switch cfg.Workload {
	case "cold-start-2k":
		err = runColdStart(cfg, rec, res)
	case "mirror-churn-2k":
		err = runMirrorChurn(cfg, rec, res)
	case "ingest-20k":
		err = runIngest(cfg, rec, res)
	case "serve-point-2k", "serve-scan-2k":
		err = runServe(cfg, rec, res)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		res.gc.report(res)
		res.spanLayers(rec)
		res.layer("bench.samples", float64(res.Ops.N))
		res.layer("bench.traced_op_ms", res.Ops.P50)
		res.layer("bench.op_tail_ms", res.Ops.Tail)
		res.layer("bench.tail_percentile", res.Ops.TailPct)
		if err := rec.writeChrome(cfg.TracePath); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// spanLayers turns the recorded spans into per-layer seconds, the
// median over operations of each layer's self time, and checks that
// the table they make is the operation that was timed: the spans
// explain it (unaccounted_frac) and recording them did not change it
// (trace_overhead_frac).
func (r *runResult) spanLayers(rec *recorder) {
	layers, unaccounted := layerSeconds(rec.spans)
	values := func(m map[int]float64) []float64 {
		v := make([]float64, 0, len(m))
		for _, s := range m {
			v = append(v, s)
		}
		return v
	}
	for name, byRun := range layers {
		r.layer(name+"_s", median(values(byRun)))
	}
	overhead := traceOverheadFrac(len(rec.spans), spanCost(), r.TimedS)
	r.layer("bench.trace_overhead_frac", overhead)
	// The serve workloads' operations are single requests, which carry
	// no spans: there is nothing to account for there.
	if len(unaccounted) > 0 {
		u := median(values(unaccounted))
		r.layer("bench.unaccounted_frac", u)
		r.check(u <= 0.10, "the layer spans leave %.3f of the median operation unexplained, want <= 0.10", u)
		r.check(overhead <= 0.05, "recording spans took %.3f of the measured time, want <= 0.05", overhead)
	}
	// Rates the layers' own times imply.
	if s := r.Layers["core.load_dumps_s"]; s > 0 {
		r.layer("core.load_dumps_mb_per_s", r.Layers["core.dump_mb"]/s)
	}
	if s := r.Layers["verify.init_s"]; s > 0 {
		r.layer("verify.routes_per_s", r.Layers["bench.routes"]/s)
	}
	r.layer("whois.first_query_us", r.Layers["whois.first_query_s"]*1e6)
}

// repeat times op count times or, when count is 0, until the operations
// have taken cfg.Seconds between them (and at least twice), and returns
// the durations in milliseconds. Each operation is one root span whose
// children are the calls into the layers. What op returns runs after
// the clock has stopped, output checks and teardown, and does not use
// up the measured time: a traced run, with its probes, times as many
// operations as an untraced one.
func repeat(cfg runConfig, rec *recorder, res *runResult, count int, op func(i, root int) (after func() error, err error)) ([]float64, error) {
	switch {
	case cfg.Smoke:
		count = 1
	case cfg.Ops > 0:
		count = cfg.Ops
	}
	spent := 0.0 // ms
	more := func(i int) bool {
		if count > 0 {
			return i < count
		}
		return i < 2 || spent < cfg.Seconds*1e3
	}
	var ms []float64
	for i := 0; more(i); i++ {
		var g0 goStats
		if rec != nil {
			g0 = readGoStats()
		}
		t0 := time.Now()
		root := rec.start(rootSpan, -1, i)
		after, err := op(i, root)
		rec.end(root)
		took := float64(time.Since(t0).Nanoseconds()) / 1e6
		ms = append(ms, took)
		spent += took
		if rec != nil {
			res.gc.add(g0, readGoStats())
		}
		res.Attempted++
		if err != nil {
			return nil, err
		}
		if after != nil {
			if err := after(); err != nil {
				return nil, err
			}
		}
	}
	return ms, nil
}

func (r *runResult) setOps(ms []float64) {
	r.Ops = summarize(ms)
	for _, v := range ms {
		r.TimedS += v / 1e3
	}
	r.OpsPerS = float64(len(ms)) / r.TimedS
}

// reportsDigest is the sha256 of report.WriteJSONL over the reports.
func reportsDigest(reports []verify.RouteReport) (string, error) {
	h := sha256.New()
	if err := report.WriteJSONL(h, reports); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// summary fetches and decodes /v1/summary.
func summary(c *conn) (struct {
	Serial uint64           `json:"serial"`
	Routes int64            `json:"routes"`
	Checks map[string]int64 `json:"checks"`
}, error) {
	var s struct {
		Serial uint64           `json:"serial"`
		Routes int64            `json:"routes"`
		Checks map[string]int64 `json:"checks"`
	}
	code, body, err := c.get("/v1/summary")
	if err != nil {
		return s, err
	}
	if code != http.StatusOK {
		return s, fmt.Errorf("GET /v1/summary: status %d", code)
	}
	return s, json.Unmarshal(body, &s)
}
