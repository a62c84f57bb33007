package parser

import (
	"runtime"
	"sync"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/rpsl"
	"rpslyzer/internal/trace"
)

// SeqChunk tags a Chunk with its global sequence number so the merge
// stage can restore feed order after parallel parsing.
type SeqChunk struct {
	Chunk
	Seq int
	// Err, on a dump's last chunk (which may be empty), is the read
	// error that cut the dump short; it becomes that chunk's last
	// diagnostic, so the merge records it behind everything else of
	// its dump.
	Err error
}

// ChunkResult is the parse of one chunk: a chunk-local partial IR plus
// the reader diagnostics kept separate, because the merge records a
// dump's diagnostics after all of its objects' parse errors.
type ChunkResult struct {
	Seq       int
	Source    string
	DumpIndex int
	// IR carries the chunk's parse errors (in encounter order) and
	// per-source class counts; its object maps are empty — the parsed
	// objects travel in Flat, unresolved, because duplicate resolution
	// across chunks can only happen at the merge stage anyway.
	IR *ir.IR
	// Flat holds the chunk's parsed objects in encounter order.
	Flat *FlatObjects
	// Diags holds the chunk's reader diagnostics, already converted to
	// parse errors.
	Diags []ir.ParseError
	// Objects and Bytes size the chunk for throughput accounting.
	Objects int
	Bytes   int
	// Worker identifies which pool worker parsed the chunk.
	Worker int
}

// LoadStats attaches instrumentation to a pipeline run. Set the fields
// before the pipeline starts.
type LoadStats struct {
	// Metrics, when non-nil, counts the run's chunks, objects, bytes and
	// parse errors in a telemetry registry, with per-chunk latency.
	Metrics *PipelineMetrics

	// Trace, when non-nil, records sampled per-chunk spans under the
	// "ingest" stage (source, bytes, objects per chunk).
	Trace *trace.Tracer
}

// DefaultWorkers resolves a worker-count setting: values <= 0 mean
// GOMAXPROCS workers.
func DefaultWorkers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ParseChunk parses one chunk into flat, encounter-ordered object
// lists (plus errors and counts on the partial IR).
func ParseChunk(c Chunk, seq, worker int) ChunkResult {
	b := &builder{x: ir.New()}
	r := rpsl.NewTextReader(c.Text, c.Source, c.FirstLine)
	objects := 0
	for obj := r.Next(); obj != nil; obj = r.Next() {
		b.add(obj)
		objects++
	}
	return ChunkResult{
		Seq:       seq,
		Source:    c.Source,
		DumpIndex: c.DumpIndex,
		IR:        b.x,
		Flat:      &b.flat,
		Diags:     diagErrors(r.Diagnostics()),
		Objects:   objects,
		Bytes:     len(c.Text),
		Worker:    worker,
	}
}

// ParseChunks runs a pool of workers (sized by DefaultWorkers) over the
// chunk stream and emits one ChunkResult per chunk, in completion order
// — Merge restores feed order by Seq. The result channel closes after
// the last chunk; stats, when non-nil, instruments the run.
func ParseChunks(in <-chan SeqChunk, workers int, stats *LoadStats) <-chan ChunkResult {
	workers = DefaultWorkers(workers)
	var (
		m  *PipelineMetrics
		tr *trace.Tracer
	)
	if stats != nil {
		m = stats.Metrics
		tr = stats.Trace
	}
	out := make(chan ChunkResult, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for sc := range in {
				sp := m.chunkSpan()
				tsp := tr.Start("ingest", "parse-chunk")
				res := ParseChunk(sc.Chunk, sc.Seq, worker)
				if sc.Err != nil {
					res.Diags = append(res.Diags, ioError(sc.Source, sc.Err))
				}
				tsp.Set("source", res.Source).
					SetInt("bytes", int64(res.Bytes)).
					SetInt("objects", int64(res.Objects)).
					End()
				sp.End()
				m.recordChunk(&res)
				out <- res
			}
		}(w)
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}
