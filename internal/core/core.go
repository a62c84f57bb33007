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
	"rpslyzer/internal/rpsl"
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

// ParseDumps lexes and parses IRR dumps into the IR.
func ParseDumps(dumps ...Dump) *ir.IR {
	b := parser.NewBuilder()
	for _, d := range dumps {
		b.AddDump(rpsl.NewReader(d.R, d.Name))
	}
	return b.IR
}

// ParseText parses RPSL text from a single source (convenience for
// examples and tests).
func ParseText(text, source string) *ir.IR {
	return ParseDumps(Dump{Name: source, R: strings.NewReader(text)})
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
	// Shards partitions the route database and the verifier's bulk
	// drivers by origin-AS shard (see irr.NewSharded and
	// verify.Config.Shards). <= 1 keeps the database in one part; an
	// explicit Verify.Shards takes precedence for the verifier.
	Shards int
	// Verify tunes the verifier.
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
	if o.Verify.Shards == 0 {
		o.Verify.Shards = o.Shards
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
	x := ParseDumps(dumps...)
	db := irr.NewSharded(x, opts.Shards)
	verifier := verify.New(db, topo.Rels, opts.Verify)
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
func (s *System) VerifyRoutes(routes []bgpsim.Route, workers int) *report.Aggregator {
	agg := report.NewAggregator()
	s.Verifier.VerifyStream(routes, workers, agg.Add)
	return agg
}

// BuildFromIR wires a verifier over an already-parsed IR and an
// externally supplied relationship database (e.g. loaded from a CAIDA
// file) — the path real-dump users take. cfg.Shards partitions the
// database and the verifier together (one knob, same partition).
func BuildFromIR(x *ir.IR, rels *asrel.Database, cfg verify.Config) (*irr.Database, *verify.Verifier) {
	db := irr.NewSharded(x, cfg.Shards)
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
