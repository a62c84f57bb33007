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
	// PairMemoHits counts AS pairs whose two checks a bulk run's pair
	// memo served instead of evaluating them: an earlier route had the
	// pair's key (family, communities, deduplicated path from the
	// origin through the importer), and the route's prefix gave the
	// same result on every prefix test that route's evaluation ran.
	// The served checks still count in ChecksEvaluated and
	// ChecksByStatus.
	PairMemoHits *telemetry.Counter
	// RouteSeconds and CheckSeconds are the whole-route and per-check
	// verification latencies. Like ProgramSeconds they are taken on one
	// route in N per arena, so their counts are samples taken, not work
	// done; the counters above are the exact ones.
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
			"AS pairs a bulk run's pair memo served from an earlier route with the same key and prefix test results."),
		RouteSeconds: reg.Histogram("rpslyzer_verify_route_seconds",
			"Whole-route verification latency (sampled).", nil),
		CheckSeconds: reg.Histogram("rpslyzer_verify_check_seconds",
			"Per-check verification latency (sampled).", nil),
		ProgramsCompiled: reg.Counter("rpslyzer_verify_programs_compiled_total",
			"Aut-num rule programs compiled."),
		ProgramCacheHits: reg.Counter("rpslyzer_verify_program_cache_hits_total",
			"Checks served from the compiled-program cache."),
		ProgramCacheSize: reg.Gauge("rpslyzer_verify_program_cache_size",
			"Compiled aut-num programs resident in the cache."),
		ProgramSeconds: reg.Histogram("rpslyzer_verify_program_exec_seconds",
			"Compiled-program execution latency per check (sampled).", nil),
	}
}

// SetMetrics attaches metrics to the verifier. Call before verification
// starts; the verifier reads the pointer without synchronization.
func (v *Verifier) SetMetrics(m *Metrics) { v.metrics = m }

// tally is the arena-local side of Metrics and of the route sampler:
// the hot path bumps plain integers its goroutine owns, and flush folds
// them into the shared registry and tracer every tallyFlushRoutes
// routes and when the arena's driver finishes, so the exported counters
// stay exact while a scrape during a sweep still sees them advance.
type tally struct {
	routes, ignored    int64
	byStatus           [len(statusNames)]int64
	pairHits, progHits int64
	// routeOps counts routes offered to verifyRoute's sampler (flush
	// keeps it); it takes the first, so short runs feed the sketches.
	// timed is set while a route it took is being walked: that route's
	// checks and program executions are the ones timed.
	routeOps uint64
	timed    bool
}

const tallyFlushRoutes = 1024

// flush adds the counts since the last flush to v's metrics, offers
// the routes to its tracer's verify stage, and zeroes them.
func (t *tally) flush(v *Verifier) {
	v.tracer.Offered("verify", uint64(t.routes+t.ignored))
	if m := v.metrics; m != nil {
		m.RoutesVerified.Add(t.routes)
		m.RoutesIgnored.Add(t.ignored)
		var checks int64
		for st, n := range t.byStatus {
			if n > 0 {
				checks += n
				m.ChecksByStatus.Add(Status(st).String(), n)
			}
		}
		m.ChecksEvaluated.Add(checks)
		m.PairMemoHits.Add(t.pairHits)
		m.ProgramCacheHits.Add(t.progHits)
	}
	*t = tally{routeOps: t.routeOps}
}

func (m *Metrics) programCompiled(size int64) {
	if m == nil {
		return
	}
	m.ProgramsCompiled.Inc()
	m.ProgramCacheSize.Set(size)
}
