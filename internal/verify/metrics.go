package verify

import (
	"rpslyzer/internal/telemetry"
)

// Metrics exposes the verifier's counters through a telemetry registry.
// Attach with Verifier.SetMetrics; a nil *Metrics is a no-op, so the
// verification hot path calls through it unconditionally.
type Metrics struct {
	// RoutesVerified counts routes verified, incremental patches
	// included; RoutesIgnored counts routes excluded (AS-set paths,
	// single-AS paths).
	RoutesVerified *telemetry.Counter
	RoutesIgnored  *telemetry.Counter
	// ChecksEvaluated counts import/export checks; ChecksByStatus breaks
	// them down by resulting Status.
	ChecksEvaluated *telemetry.Counter
	ChecksByStatus  *telemetry.LabeledCounter
	// PairMemoHits counts AS pairs whose two checks a bulk run copied
	// from its (prefix, communities, path-suffix) memo instead of
	// evaluating them; the copied checks still count in
	// ChecksEvaluated and ChecksByStatus.
	PairMemoHits *telemetry.Counter
	// RouteSeconds and CheckSeconds are the whole-route and per-check
	// verification latencies.
	RouteSeconds *telemetry.Histogram
	CheckSeconds *telemetry.Histogram
	// ProgramsCompiled counts aut-num rule programs compiled by the
	// evaluation core; ProgramCacheHits counts checks served from the
	// program cache; ProgramCacheSize is the resident program count.
	ProgramsCompiled *telemetry.Counter
	ProgramCacheHits *telemetry.Counter
	ProgramCacheSize *telemetry.Gauge
	// ProgramSeconds is the compiled-program execution latency of one
	// check's rule loop.
	ProgramSeconds *telemetry.Histogram
}

// NewMetrics registers the verifier metrics in reg (the default
// registry when nil) and returns them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Metrics{
		RoutesVerified: reg.Counter("rpslyzer_verify_routes_total",
			"BGP routes verified."),
		RoutesIgnored: reg.Counter("rpslyzer_verify_routes_ignored_total",
			"BGP routes excluded from verification (AS-set or single-AS paths)."),
		ChecksEvaluated: reg.Counter("rpslyzer_verify_checks_total",
			"Import/export checks evaluated."),
		ChecksByStatus: reg.LabeledCounter("rpslyzer_verify_checks_by_status_total",
			"Import/export checks by verification status.", "status"),
		PairMemoHits: reg.Counter("rpslyzer_verify_pair_memo_hits_total",
			"AS pairs served from the bulk drivers' pair memo."),
		RouteSeconds: reg.Histogram("rpslyzer_verify_route_seconds",
			"Whole-route verification latency.", nil),
		CheckSeconds: reg.Histogram("rpslyzer_verify_check_seconds",
			"Per-check verification latency.", nil),
		ProgramsCompiled: reg.Counter("rpslyzer_verify_programs_compiled_total",
			"Aut-num rule programs compiled."),
		ProgramCacheHits: reg.Counter("rpslyzer_verify_program_cache_hits_total",
			"Checks served from the compiled-program cache."),
		ProgramCacheSize: reg.Gauge("rpslyzer_verify_program_cache_size",
			"Compiled aut-num programs resident in the cache."),
		ProgramSeconds: reg.Histogram("rpslyzer_verify_program_exec_seconds",
			"Compiled-program execution latency per check.", nil),
	}
}

// SetMetrics attaches metrics to the verifier. Call before verification
// starts; the verifier reads the pointer without synchronization.
func (v *Verifier) SetMetrics(m *Metrics) { v.metrics = m }

func (m *Metrics) routeSpan() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(m.RouteSeconds)
}

func (m *Metrics) checkSpan() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(m.CheckSeconds)
}

func (m *Metrics) observeRoute(rep *RouteReport) {
	if m == nil {
		return
	}
	if rep.Ignored != "" {
		m.RoutesIgnored.Inc()
	} else {
		m.RoutesVerified.Inc()
	}
}

func (m *Metrics) observeCheck(st Status) {
	if m == nil {
		return
	}
	m.ChecksEvaluated.Inc()
	m.ChecksByStatus.Inc(st.String())
}

// pairMemoHit records a pair served from the memo. The status counters
// stay exact; the per-check latency spans are skipped.
func (m *Metrics) pairMemoHit(export, imp Status) {
	if m == nil {
		return
	}
	m.PairMemoHits.Inc()
	m.observeCheck(export)
	m.observeCheck(imp)
}

func (m *Metrics) programCompiled(size int64) {
	if m == nil {
		return
	}
	m.ProgramsCompiled.Inc()
	m.ProgramCacheSize.Set(size)
}

func (m *Metrics) programCacheHit() {
	if m == nil {
		return
	}
	m.ProgramCacheHits.Inc()
}

func (m *Metrics) programSpan() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(m.ProgramSeconds)
}
