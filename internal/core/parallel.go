package core

import (
	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
)

// LoadOptions tunes the parallel ingestion pipeline.
type LoadOptions struct {
	// Workers sizes the parse pool; <= 0 means GOMAXPROCS workers.
	Workers int
	// ChunkSize is the splitter's target chunk payload in bytes; <= 0
	// keeps the default.
	ChunkSize int
	// Stats, when non-nil, receives progress counters as the pipeline
	// runs (bytes, objects, chunks, parse errors, per-worker tallies).
	Stats *parser.LoadStats
	// Sequential bypasses the pipeline and parses on the calling
	// goroutine — the reference path the golden round-trip test and the
	// load benchmarks compare against.
	Sequential bool
}

// ParseDumpsParallel parses IRR dumps through the streaming pipeline:
// each dump is split into chunks of whole RPSL objects, a worker pool
// parses chunks concurrently into flat object lists, and a merge stage
// applies the chunk results in feed order. The result is deeply equal
// to ParseDumps over the same dumps: IRR priority order,
// first-definition-wins duplicate resolution, route ordering, and
// error ordering are all preserved.
//
// The workers deliberately do no duplicate resolution of their own:
// cross-chunk duplicates can only be resolved globally, so chunk-local
// maps would be pure overhead on top of the merge stage's map
// insertions — which are exactly the insertions the sequential Builder
// performs, no more.
func ParseDumpsParallel(opts LoadOptions, dumps ...Dump) *ir.IR {
	if opts.Sequential {
		return ParseDumps(dumps...)
	}
	workers := parser.DefaultWorkers(opts.Workers)
	var metrics *parser.PipelineMetrics
	if opts.Stats != nil {
		metrics = opts.Stats.Metrics
	}

	// Producer: split dumps in priority order into globally sequenced
	// chunks. The channel bound keeps in-flight raw text proportional to
	// the pool size, not the dump size.
	chunks := make(chan parser.SeqChunk, 2*workers)
	go func() {
		defer close(chunks)
		seq := 0
		for i, d := range dumps {
			sp := parser.NewSplitter(d.R, d.Name, i, opts.ChunkSize)
			for c, ok := sp.Next(); ok; c, ok = sp.Next() {
				metrics.ChunkSplit()
				chunks <- parser.SeqChunk{Chunk: c, Seq: seq}
				seq++
			}
			if err := sp.Err(); err != nil {
				// An empty last chunk carries the read error to the
				// merge stage, behind the dump's diagnostics.
				chunks <- parser.SeqChunk{Chunk: parser.Chunk{Source: d.Name, DumpIndex: i}, Seq: seq, Err: err}
				seq++
			}
		}
	}()

	results := parser.ParseChunks(chunks, workers, opts.Stats)

	// Merge: apply chunk results strictly in sequence order. Results
	// arrive in completion order; out-of-order ones wait in a ring
	// buffer indexed by (seq - next), bounded by the number of in-flight
	// chunks (pool size plus channel capacity).
	m := newMerger()
	var ring []parser.ChunkResult
	var present []bool
	buffered := 0
	next := 0
	for res := range results {
		idx := res.Seq - next
		for idx >= len(ring) {
			ring = append(ring, parser.ChunkResult{})
			present = append(present, false)
		}
		ring[idx], present[idx] = res, true
		buffered++
		metrics.ObserveReorderDepth(buffered)
		for len(present) > 0 && present[0] {
			m.apply(ring[0])
			ring[0], present[0] = parser.ChunkResult{}, false
			ring, present = ring[1:], present[1:]
			buffered--
			next++
		}
	}
	return m.finish()
}

// merger reassembles flat chunk results into one IR with the exact
// semantics of the sequential Builder: first definition wins across the
// whole feed, route objects deduplicate on (prefix, origin, source)
// globally, and each dump's reader diagnostics land after all of that
// dump's parse errors.
type merger struct {
	out     *ir.IR
	curDump int
	diags   []ir.ParseError
	// routes holds every chunk's route objects in feed order, nroutes
	// of them; finish deduplicates them once that number is known.
	// sources numbers the registry names, so that the key hashes an
	// int, not the name.
	routes  []sourceRoutes
	nroutes int
	sources map[string]int
}

type sourceRoutes struct {
	source int
	routes []*ir.RouteObject
}

type mergeRouteKey struct {
	prefix prefix.Prefix
	origin ir.ASN
	source int
}

func newMerger() *merger {
	return &merger{out: ir.New(), sources: make(map[string]int), curDump: -1}
}

func (m *merger) apply(res parser.ChunkResult) {
	if res.DumpIndex != m.curDump {
		m.flushDiags()
		m.curDump = res.DumpIndex
	}
	// First-definition-wins classes, in chunk encounter order — applied
	// in sequence order, this is the sequential Builder's insertion
	// order exactly.
	f := res.Flat
	for _, an := range f.AutNums {
		if _, dup := m.out.AutNums[an.ASN]; !dup {
			m.out.AutNums[an.ASN] = an
		}
	}
	for _, s := range f.AsSets {
		if _, dup := m.out.AsSets[s.Name]; !dup {
			m.out.AsSets[s.Name] = s
		}
	}
	for _, s := range f.RouteSets {
		if _, dup := m.out.RouteSets[s.Name]; !dup {
			m.out.RouteSets[s.Name] = s
		}
	}
	for _, s := range f.PeeringSets {
		if _, dup := m.out.PeeringSets[s.Name]; !dup {
			m.out.PeeringSets[s.Name] = s
		}
	}
	for _, s := range f.FilterSets {
		if _, dup := m.out.FilterSets[s.Name]; !dup {
			m.out.FilterSets[s.Name] = s
		}
	}
	for _, s := range f.InetRtrs {
		if _, dup := m.out.InetRtrs[s.Name]; !dup {
			m.out.InetRtrs[s.Name] = s
		}
	}
	for _, s := range f.RtrSets {
		if _, dup := m.out.RtrSets[s.Name]; !dup {
			m.out.RtrSets[s.Name] = s
		}
	}
	if len(f.Routes) > 0 {
		id, ok := m.sources[res.Source]
		if !ok {
			id = len(m.sources)
			m.sources[res.Source] = id
		}
		m.routes = append(m.routes, sourceRoutes{id, f.Routes})
		m.nroutes += len(f.Routes)
	}
	m.out.Errors = append(m.out.Errors, res.IR.Errors...)
	m.diags = append(m.diags, res.Diags...)
	for src, classes := range res.IR.Counts {
		dst := m.out.Counts[src]
		if dst == nil {
			dst = make(map[string]int, len(classes))
			m.out.Counts[src] = dst
		}
		for class, n := range classes {
			dst[class] += n
		}
	}
}

// flushDiags appends the finished dump's reader diagnostics, matching
// the sequential Builder.AddDump order (objects first, then
// diagnostics, per dump).
func (m *merger) flushDiags() {
	m.out.Errors = append(m.out.Errors, m.diags...)
	m.diags = nil
}

// finish keeps every (prefix, origin, source) route tuple once, in feed
// order (none leaves Routes nil, as the Builder does), and returns the IR.
func (m *merger) finish() *ir.IR {
	m.flushDiags()
	if m.nroutes == 0 {
		return m.out
	}
	seen := make(map[mergeRouteKey]struct{}, m.nroutes)
	m.out.Routes = make([]*ir.RouteObject, 0, m.nroutes)
	for _, c := range m.routes {
		for _, r := range c.routes {
			seen[mergeRouteKey{r.Prefix, r.Origin, c.source}] = struct{}{}
			if len(seen) > len(m.out.Routes) { // not a duplicate
				m.out.Routes = append(m.out.Routes, r)
			}
		}
	}
	return m.out
}
