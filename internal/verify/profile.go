package verify

import (
	"strconv"
	"time"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/trace"
)

// Heavy-hitter sketch names, as registered on a Tracer and served at
// /debug/trace/topk.
const (
	SketchSlowRoutes  = "verify_slow_routes"
	SketchSlowASes    = "verify_slow_ases"
	SketchHotPrograms = "verify_hot_programs"
)

// Profiler accumulates heavy-hitter profiles of verification work:
// which routes take longest to verify, which origin ASes the slow
// routes belong to, and which aut-nums' compiled programs burn the
// most execution time. All three are space-saving top-K sketches, so
// memory stays bounded no matter how many routes flow through.
//
// A nil *Profiler is inert. Observation is sampled so the hot path
// stays hot: one route in routeSampleN is timed, whole and program
// execution by program execution, with observed weights scaled by that
// one factor so sketch weights remain estimates of total seconds. The
// sampler counts on the calling goroutine's arena (verifyRoute), so
// partitions share no counter, and the same clock reads feed Metrics'
// latency histograms.
type Profiler struct {
	// SlowRoutes weighs prefixes by whole-route verification seconds.
	SlowRoutes *trace.TopK
	// SlowASes weighs origin ASes by whole-route verification seconds.
	SlowASes *trace.TopK
	// HotPrograms weighs rule-owner ASes by sampled compiled-program
	// execution seconds (scaled by the sampling factor).
	HotPrograms *trace.TopK

	routeSampleN uint64
}

// DefaultRouteSampleN is the default 1-in-N sampling rate for route
// timing. Sampling bounds the sketch-mutex and clock traffic per
// route; counter-based selection means the first route of every arena
// is observed, so short runs still populate the sketches.
const DefaultRouteSampleN = 64

// NewProfiler creates a Profiler whose sketches track the k heaviest
// keys each (k < 1 defaults to 64).
func NewProfiler(k int) *Profiler {
	if k < 1 {
		k = 64
	}
	return &Profiler{
		SlowRoutes:   trace.NewTopK(k),
		SlowASes:     trace.NewTopK(k),
		HotPrograms:  trace.NewTopK(k),
		routeSampleN: DefaultRouteSampleN,
	}
}

// SetRouteSample overrides the 1-in-n route sampling rate; n <= 1
// observes every route (exact weights, as `verify -slowest` wants for
// offline profiling). Call before verification starts.
func (p *Profiler) SetRouteSample(n int) {
	if p == nil {
		return
	}
	if n < 1 {
		n = 1
	}
	p.routeSampleN = uint64(n)
}

// Register publishes the profiler's sketches on the tracer's
// /debug/trace/topk endpoint. Nil-safe on both sides.
func (p *Profiler) Register(tr *trace.Tracer) {
	if p == nil || tr == nil {
		return
	}
	tr.RegisterTopK(SketchSlowRoutes, p.SlowRoutes)
	tr.RegisterTopK(SketchSlowASes, p.SlowASes)
	tr.RegisterTopK(SketchHotPrograms, p.HotPrograms)
}

// asKey renders an ASN as the sketch key ("AS65001").
func asKey(a ir.ASN) string {
	return "AS" + strconv.FormatUint(uint64(uint32(a)), 10)
}

// routePeriod is the route sampling period (Metrics alone, with no
// profiler attached, samples at the default).
func (p *Profiler) routePeriod() uint64 {
	if p == nil {
		return DefaultRouteSampleN
	}
	return p.routeSampleN
}

// observeRoute folds one sampled route into the route/AS sketches,
// scaling the weight by the sampling factor so weights remain
// estimates of total seconds.
func (p *Profiler) observeRoute(route *bgpsim.Route, rep *RouteReport, d time.Duration) {
	if p == nil || rep.Ignored != "" {
		return
	}
	secs := d.Seconds() * float64(p.routeSampleN)
	p.SlowRoutes.Observe(route.Prefix.String(), secs)
	if n := len(route.Path); n > 0 {
		p.SlowASes.Observe(asKey(route.Path[n-1]), secs)
	}
}

// observeExec folds one program execution of a sampled route into the
// hot-program sketch, scaling the weight by the sampling factor so
// weights remain estimates of total seconds.
func (p *Profiler) observeExec(self ir.ASN, d time.Duration) {
	if p == nil {
		return
	}
	p.HotPrograms.Observe(asKey(self), d.Seconds()*float64(p.routeSampleN))
}

// SetTracer attaches a tracer: route verification and program
// compilation emit sampled spans under the "verify" and "compile"
// stages. Call before verification starts.
func (v *Verifier) SetTracer(tr *trace.Tracer) {
	v.tracer, v.tracePeriod = tr, tr.Period("verify")
}

// SetProfiler attaches a heavy-hitter profiler. Call before
// verification starts.
func (v *Verifier) SetProfiler(p *Profiler) { v.profiler = p }

// Profiler returns the attached profiler (nil when none).
func (v *Verifier) Profiler() *Profiler { return v.profiler }
