package nrtm

import (
	"rpslyzer/internal/telemetry"
)

// Metrics exposes the mirror's counters through a telemetry registry.
// A nil *Metrics is a no-op, so the apply path calls through it
// unconditionally.
type Metrics struct {
	// SerialsApplied counts journal serials (operations) applied, each
	// creating, replacing or deleting one object.
	SerialsApplied *telemetry.Counter
	// RejectedObjects counts applied operations whose object the parser
	// rejected (an aut-num with a bad name, a route without a valid
	// prefix or origin): like a dump parse, the mirror counts them in
	// the class census and indexes nothing.
	RejectedObjects *telemetry.Counter
	// ApplySeconds is the per-journal incremental apply latency,
	// including index maintenance and re-flattening.
	ApplySeconds *telemetry.Histogram
	// Resyncs counts full database rebuilds forced by serial gaps or
	// corrupt journals; Swaps counts snapshot pointer swaps (one per
	// applied journal or resync).
	Resyncs *telemetry.Counter
	Swaps   *telemetry.Counter
	// SerialGaps counts journals rejected for non-contiguous serials.
	SerialGaps *telemetry.Counter
	// PendingJournals gauges journal files on disk not yet applied —
	// the mirror's serial lag in files.
	PendingJournals *telemetry.Gauge
	// LastApplyUnix is the unix time of the last successful apply or
	// resync (0 until the first).
	LastApplyUnix *telemetry.Gauge
	// ApplyToSwapSeconds is the end-to-end freshness latency of one
	// journal: read + incremental apply + downstream OnApply (report
	// rebuild, store swap) until the new data is serveable.
	ApplyToSwapSeconds *telemetry.Histogram
}

// NewMetrics registers the mirror metrics in reg (the default registry
// when nil) and returns them.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Metrics{
		SerialsApplied: reg.Counter("rpslyzer_nrtm_serials_applied_total",
			"Journal serials applied incrementally."),
		RejectedObjects: reg.Counter("rpslyzer_nrtm_rejected_objects_total",
			"Applied journal operations whose object the parser rejected."),
		ApplySeconds: reg.Histogram("rpslyzer_nrtm_apply_seconds",
			"Per-journal incremental apply latency.", nil),
		Resyncs: reg.Counter("rpslyzer_nrtm_resyncs_total",
			"Full resyncs forced by serial gaps or corrupt journals."),
		Swaps: reg.Counter("rpslyzer_nrtm_swaps_total",
			"Database snapshot swaps."),
		SerialGaps: reg.Counter("rpslyzer_nrtm_serial_gaps_total",
			"Journals rejected for non-contiguous serials."),
		PendingJournals: reg.Gauge("rpslyzer_nrtm_pending_journals",
			"Journal files on disk not yet applied."),
		LastApplyUnix: reg.Gauge("rpslyzer_nrtm_last_apply_unix",
			"Unix time of the last successful journal apply or resync."),
		ApplyToSwapSeconds: reg.Histogram("rpslyzer_nrtm_apply_to_swap_seconds",
			"Journal-apply-to-swap latency including downstream rebuild hooks.", nil),
	}
}

func (m *Metrics) applySpan() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(m.ApplySeconds)
}

func (m *Metrics) applied(ops, rejected int) {
	if m == nil {
		return
	}
	m.SerialsApplied.Add(int64(ops))
	m.RejectedObjects.Add(int64(rejected))
	m.Swaps.Inc()
}

func (m *Metrics) pending(n int) {
	if m == nil {
		return
	}
	m.PendingJournals.Set(int64(n))
}

func (m *Metrics) swapDone(unix int64, secs float64) {
	if m == nil {
		return
	}
	m.LastApplyUnix.Set(unix)
	m.ApplyToSwapSeconds.Observe(secs)
}

func (m *Metrics) gap() {
	if m == nil {
		return
	}
	m.SerialGaps.Inc()
}

func (m *Metrics) resynced() {
	if m == nil {
		return
	}
	m.Resyncs.Inc()
	m.Swaps.Inc()
}
