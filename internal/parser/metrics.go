package parser

import (
	"rpslyzer/internal/telemetry"
)

// PipelineMetrics exposes the ingestion pipeline's per-stage counters
// through a telemetry registry. Attach one to LoadStats.Metrics to
// instrument a pipeline run; a nil *PipelineMetrics is a no-op, so the
// hot paths call through it unconditionally.
type PipelineMetrics struct {
	// ChunksSplit counts chunks emitted by the splitter stage.
	ChunksSplit *telemetry.Counter
	// ChunksParsed, ObjectsParsed, and BytesParsed count work completed
	// by the parse worker pool.
	ChunksParsed  *telemetry.Counter
	ObjectsParsed *telemetry.Counter
	BytesParsed   *telemetry.Counter
	// ParseErrors counts parse errors (including reader diagnostics) by
	// source registry.
	ParseErrors *telemetry.LabeledCounter
	// ChunkParseSeconds is the per-chunk parse latency; its _sum is the
	// pool's total busy time in seconds.
	ChunkParseSeconds *telemetry.Histogram
	// ReorderDepthPeak is the high-water mark of the merge stage's
	// reorder buffer (its depth is 0 again whenever a load ends).
	ReorderDepthPeak *telemetry.Gauge
}

// NewPipelineMetrics registers the pipeline metrics in reg (the default
// registry when nil) and returns them.
func NewPipelineMetrics(reg *telemetry.Registry) *PipelineMetrics {
	if reg == nil {
		reg = telemetry.Default()
	}
	return &PipelineMetrics{
		ChunksSplit: reg.Counter("rpslyzer_pipeline_chunks_split_total",
			"Chunks emitted by the splitter stage."),
		ChunksParsed: reg.Counter("rpslyzer_pipeline_chunks_parsed_total",
			"Chunks parsed by the worker pool."),
		ObjectsParsed: reg.Counter("rpslyzer_pipeline_objects_parsed_total",
			"RPSL objects parsed."),
		BytesParsed: reg.Counter("rpslyzer_pipeline_bytes_parsed_total",
			"Raw dump bytes parsed."),
		ParseErrors: reg.LabeledCounter("rpslyzer_pipeline_parse_errors_total",
			"Parse errors and reader diagnostics by source registry.", "registry"),
		ChunkParseSeconds: reg.Histogram("rpslyzer_pipeline_chunk_parse_seconds",
			"Per-chunk parse latency; the sum is total worker busy time.", nil),
		ReorderDepthPeak: reg.Gauge("rpslyzer_pipeline_reorder_depth_peak",
			"High-water mark of the merge-stage reorder buffer."),
	}
}

// ChunkSplit records one chunk leaving the splitter.
func (m *PipelineMetrics) ChunkSplit() {
	if m == nil {
		return
	}
	m.ChunksSplit.Inc()
}

// ObserveReorderDepth records the merge stage's reorder-buffer depth
// after a result arrived.
func (m *PipelineMetrics) ObserveReorderDepth(depth int) {
	if m == nil {
		return
	}
	m.ReorderDepthPeak.SetMax(int64(depth))
}

// chunkSpan starts a parse-latency span; inert when m is nil.
func (m *PipelineMetrics) chunkSpan() telemetry.Span {
	if m == nil {
		return telemetry.Span{}
	}
	return telemetry.StartSpan(m.ChunkParseSeconds)
}

// recordChunk folds one finished chunk into the counters.
func (m *PipelineMetrics) recordChunk(res *ChunkResult) {
	if m == nil {
		return
	}
	m.ChunksParsed.Inc()
	m.ObjectsParsed.Add(int64(res.Objects))
	m.BytesParsed.Add(int64(res.Bytes))
	if nerr := int64(len(res.IR.Errors) + len(res.Diags)); nerr > 0 {
		m.ParseErrors.Add(res.Source, nerr)
	}
}
