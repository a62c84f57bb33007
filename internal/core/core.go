// Package core is the public facade of the RPSLyzer reproduction: it
// wires the substrates together so tools and examples can parse IRR
// dumps into the IR, build the merged database, generate the synthetic
// universe, and verify BGP routes, in a few calls.
package core

import (
	"fmt"
	"io"
	"strings"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/report"
	"rpslyzer/internal/topology"
	"rpslyzer/internal/verify"
)

// Dump couples a named IRR with its RPSL text reader. Feed dumps in
// priority order: objects defined in several IRRs keep their
// first-seen (highest-priority) definition, as in the paper.
type Dump struct {
	Name string
	R    io.Reader
}

// LoadOptions tunes the ingestion pipeline.
type LoadOptions struct {
	// Workers sizes the parse pool; <= 0 means GOMAXPROCS workers.
	Workers int
	// ChunkSize is the splitter's target chunk payload in bytes; <= 0
	// keeps the default.
	ChunkSize int
	// Stats, when non-nil, receives progress counters as the pipeline
	// runs (bytes, objects, chunks, parse errors, per-worker tallies).
	Stats *parser.LoadStats
	// Sequential is Workers: 1 under the name bench/ compiles against;
	// ROADMAP item 1(b) deletes it.
	Sequential bool
}

// ParseDumps parses IRR dumps, fed in priority order, through the
// streaming pipeline: each dump is split into chunks of whole RPSL
// objects, a pool of workers parses the chunks into flat object lists,
// and parser.Merge applies the results in feed order. The output does
// not depend on the worker count or the chunk size.
func ParseDumps(opts LoadOptions, dumps ...Dump) *ir.IR {
	workers := parser.DefaultWorkers(opts.Workers)
	if opts.Sequential {
		workers = 1
	}
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
				// merge, behind the dump's diagnostics.
				chunks <- parser.SeqChunk{Chunk: parser.Chunk{Source: d.Name, DumpIndex: i}, Seq: seq, Err: err}
				seq++
			}
		}
	}()
	return parser.Merge(parser.ParseChunks(chunks, workers, opts.Stats), metrics)
}

// ParseText parses RPSL text from a single source (convenience for
// examples and tests).
func ParseText(text, source string) *ir.IR {
	return parser.ParseText(text, source)
}

// Options configures BuildSynthetic.
type Options struct {
	// Seed drives every deterministic generator.
	Seed int64
	// ASes is the synthetic topology size (default 2000).
	ASes int
	// Collectors is the number of BGP route collectors (default 20,
	// standing in for the paper's 60).
	Collectors int
	// Verify tunes the verifier; its Shards sets the bulk drivers'
	// partitions (0: GOMAXPROCS, as in the daemons).
	Verify verify.Config
	// Gen overrides generator rates (zero fields keep paper-calibrated
	// defaults).
	Gen irrgen.Config
	// Topo overrides topology parameters (zero fields keep defaults).
	Topo topology.Config
}

func (o *Options) fill() {
	if o.ASes == 0 {
		o.ASes = 2000
	}
	if o.Collectors == 0 {
		o.Collectors = 20
	}
	if o.Topo.ASes == 0 {
		o.Topo.ASes = o.ASes
	}
	if o.Topo.Seed == 0 {
		o.Topo.Seed = o.Seed
	}
	if o.Gen.Seed == 0 {
		o.Gen.Seed = o.Seed
	}
}

// System is a fully wired RPSLyzer instance over a synthetic universe.
type System struct {
	Topo     *topology.Topology
	Universe *irrgen.Universe
	IR       *ir.IR
	DB       *irr.Database
	Rels     *asrel.Database
	Verifier *verify.Verifier
	Sim      *bgpsim.Simulator
	// DumpSizes holds per-IRR dump sizes in bytes (Table 1 input).
	DumpSizes map[string]int64
}

// BuildSynthetic generates the synthetic Internet, emits and parses
// its IRR dumps, and wires the verifier with the ground-truth
// relationship database.
func BuildSynthetic(opts Options) (*System, error) {
	opts.fill()
	topo := topology.Generate(opts.Topo)
	universe := irrgen.Generate(topo, opts.Gen)

	var dumps []Dump
	for _, name := range irrgen.IRRs {
		dumps = append(dumps, Dump{Name: name, R: strings.NewReader(universe.DumpText(name))})
	}
	x := ParseDumps(LoadOptions{}, dumps...)
	db, verifier := BuildFromIR(x, topo.Rels, opts.Verify)
	return &System{
		Topo:      topo,
		Universe:  universe,
		IR:        x,
		DB:        db,
		Rels:      topo.Rels,
		Verifier:  verifier,
		Sim:       bgpsim.NewSimulator(topo),
		DumpSizes: universe.DumpSizes(),
	}, nil
}

// CollectRoutes runs the BGP simulation and returns the routes seen by
// n collectors.
func (s *System) CollectRoutes(n int, seed int64) []bgpsim.Route {
	collectors := s.Sim.DefaultCollectors(n)
	return s.Sim.CollectRoutes(collectors, bgpsim.Options{Seed: seed})
}

// VerifyRoutes verifies routes concurrently and aggregates them.
func (s *System) VerifyRoutes(routes []bgpsim.Route) *report.Aggregator {
	agg := report.NewAggregator()
	s.Verifier.VerifyStream(routes, 0, agg.Add)
	return agg
}

// BuildFromIR indexes an already-parsed IR and wires a verifier over it
// and an externally supplied relationship database (e.g. loaded from a
// CAIDA file) — the path real-dump users take.
func BuildFromIR(x *ir.IR, rels *asrel.Database, cfg verify.Config) (*irr.Database, *verify.Verifier) {
	db := irr.New(x)
	return db, verify.New(db, rels, cfg)
}

// VerifyOne is a convenience wrapper verifying a single route given as
// a prefix and AS-path.
func VerifyOne(v *verify.Verifier, prefixStr string, path ...ir.ASN) (verify.RouteReport, error) {
	routes, err := bgpsim.ReadDump(strings.NewReader(fmt.Sprintf("%s|%s", prefixStr, joinPath(path))))
	if err != nil {
		return verify.RouteReport{}, err
	}
	return v.VerifyRoute(routes[0]), nil
}

func joinPath(path []ir.ASN) string {
	parts := make([]string, len(path))
	for i, a := range path {
		parts[i] = fmt.Sprintf("%d", uint32(a))
	}
	return strings.Join(parts, " ")
}
