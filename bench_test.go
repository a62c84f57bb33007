// Package rpslyzer's root benchmark harness: one benchmark per table
// and figure in the paper's evaluation, the two performance claims
// (parse throughput, Section 3; verification throughput, Section 5),
// and the ablations DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package rpslyzer

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"rpslyzer/internal/asregex"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/lint"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/render"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/rpsl"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// fixture builds the shared synthetic universe once.
type fixture struct {
	sys     *core.System
	routes  []bgpsim.Route
	reports []verify.RouteReport
	agg     *report.Aggregator
}

var (
	fixOnce sync.Once
	fix     fixture
)

// measureHeap runs fn between two ReadMemStats fences and reports the
// heap it cost: live is the retained delta after a final collection
// (what the structures actually hold onto), peak is the pre-collection
// high-water proxy. Callers must keep the built value reachable until
// measureHeap returns, then KeepAlive it.
func measureHeap(fn func()) (live, peak int64) {
	runtime.GC()
	var before, after, settled runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	runtime.GC()
	runtime.ReadMemStats(&settled)
	live = int64(settled.HeapAlloc) - int64(before.HeapAlloc)
	peak = int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if peak < live {
		peak = live
	}
	return live, peak
}

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 800, Collectors: 8})
		if err != nil {
			panic(err)
		}
		routes := sys.CollectRoutes(8, 42)
		reports := sys.Verifier.VerifyAll(routes, 0)
		agg := report.NewAggregator()
		for _, r := range reports {
			agg.Add(r)
		}
		fix = fixture{sys: sys, routes: routes, reports: reports, agg: agg}
	})
	return &fix
}

// BenchmarkTable1ParseIRRs regenerates Table 1: parse the 13 IRR dumps
// and count objects per registry. Throughput corresponds to the
// paper's "13 IRRs ... in under five minutes" claim.
func BenchmarkTable1ParseIRRs(b *testing.B) {
	f := getFixture(b)
	var totalBytes int64
	texts := make(map[string]string, len(irrgen.IRRs))
	for _, name := range irrgen.IRRs {
		texts[name] = f.sys.Universe.DumpText(name)
		totalBytes += int64(len(texts[name]))
	}
	b.SetBytes(totalBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dumps []core.Dump
		for _, name := range irrgen.IRRs {
			dumps = append(dumps, core.Dump{Name: name, R: strings.NewReader(texts[name])})
		}
		x := core.ParseDumps(dumps...)
		rows := stats.Table1(x, f.sys.DumpSizes, irrgen.IRRs)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkTable2References regenerates Table 2 from the parsed IR.
func BenchmarkTable2References(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := stats.ComputeTable2(f.sys.IR)
		if t2.AutNum.Defined == 0 {
			b.Fatal("empty table 2")
		}
	}
}

// BenchmarkFigure1RuleCCDF regenerates Figure 1's two CCDF series.
func BenchmarkFigure1RuleCCDF(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, bq := stats.RuleCCDF(f.sys.IR)
		if len(all) == 0 || len(bq) == 0 {
			b.Fatal("empty CCDF")
		}
	}
}

// BenchmarkSection4Stats regenerates the Section 4 in-text numbers.
func BenchmarkSection4Stats(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s4 := stats.ComputeSection4(f.sys.IR)
		ro := stats.ComputeRouteObjectStats(f.sys.IR)
		as := stats.ComputeAsSetStats(f.sys.DB)
		if s4.AutNums == 0 || ro.Objects == 0 || as.Total == 0 {
			b.Fatal("empty stats")
		}
	}
}

// aggregateReports rebuilds an aggregator from cached route reports
// (the common work of the figure benchmarks).
func aggregateReports(reports []verify.RouteReport) *report.Aggregator {
	agg := report.NewAggregator()
	for _, r := range reports {
		agg.Add(r)
	}
	return agg
}

// BenchmarkFigure2PerAS regenerates the per-AS status panel.
func BenchmarkFigure2PerAS(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg := aggregateReports(f.reports)
		if agg.Figure2().ASes == 0 {
			b.Fatal("empty figure 2")
		}
	}
}

// BenchmarkFigure3PerASPair regenerates the per-AS-pair panel.
func BenchmarkFigure3PerASPair(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.agg.Figure3().Pairs == 0 {
			b.Fatal("empty figure 3")
		}
	}
}

// BenchmarkFigure4PerRoute regenerates the per-route status mixes.
func BenchmarkFigure4PerRoute(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.agg.Figure4().Routes == 0 {
			b.Fatal("empty figure 4")
		}
	}
}

// BenchmarkFigure5Unrecorded regenerates the unrecorded breakdown.
func BenchmarkFigure5Unrecorded(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.agg.Figure5().ASesWithUnrecorded == 0 {
			b.Fatal("empty figure 5")
		}
	}
}

// BenchmarkFigure6Special regenerates the special-case breakdown.
func BenchmarkFigure6Special(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if f.agg.Figure6().ASesWithSpecial == 0 {
			b.Fatal("empty figure 6")
		}
	}
}

// BenchmarkLoadDumpDir measures the full file-based ingestion pipeline
// (split → parse workers → per-shard merge) against the sequential
// loader over the benchmark universe's 13 dumps, at several pool
// sizes. scripts/verify.sh gates this adaptively: on multi-core hosts
// 8 workers must beat sequential outright; on a single CPU the
// pipeline does strictly more work than the sequential loader, so the
// gate instead caps its overhead. The heap sub-benchmark records the
// default loader's retained and peak heap cost per route object so the
// bytes-per-route ceiling in verify.sh can catch regressions.
func BenchmarkLoadDumpDir(b *testing.B) {
	f := getFixture(b)
	dir := b.TempDir()
	if err := core.WriteUniverse(f.sys, nil, dir); err != nil {
		b.Fatal(err)
	}
	var totalBytes int64
	for _, name := range irrgen.IRRs {
		totalBytes += int64(len(f.sys.Universe.DumpText(name)))
	}
	run := func(b *testing.B, opts core.LoadOptions) {
		b.SetBytes(totalBytes)
		for i := 0; i < b.N; i++ {
			x, _, err := core.LoadDumpDirOpts(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(x.AutNums) != len(f.sys.IR.AutNums) {
				b.Fatalf("lost objects: %d vs %d", len(x.AutNums), len(f.sys.IR.AutNums))
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, core.LoadOptions{Sequential: true}) })
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			run(b, core.LoadOptions{Workers: workers})
		})
	}
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var x *ir.IR
			live, peak := measureHeap(func() {
				var err error
				x, _, err = core.LoadDumpDir(dir)
				if err != nil {
					b.Fatal(err)
				}
			})
			n := float64(len(x.Routes))
			b.ReportMetric(float64(live)/n, "live-B/route")
			b.ReportMetric(float64(peak)/n, "peak-B/route")
			runtime.KeepAlive(x)
		}
	})
}

// BenchmarkIngestLarge is the opt-in paper-scale ingest benchmark: it
// streams a corpus several times the standard fixture to disk with the
// irrgen large-corpus mode (never materializing it in memory), then
// measures the sequential loader against the parallel pipeline over
// it. Run it explicitly (go test -bench IngestLarge .); -short
// skips both the multi-minute generation and the runs.
func BenchmarkIngestLarge(b *testing.B) {
	if testing.Short() {
		b.Skip("large corpus benchmark: skipped under -short")
	}
	dir := b.TempDir()
	sizes, _, err := core.WriteUniverseStream(core.Options{Seed: 42, ASes: 6000}, 4, 42, dir)
	if err != nil {
		b.Fatal(err)
	}
	var totalBytes int64
	for _, sz := range sizes {
		totalBytes += sz
	}
	b.Logf("streamed corpus: %.1f MiB across %d dumps", float64(totalBytes)/(1<<20), len(sizes))
	run := func(b *testing.B, opts core.LoadOptions) {
		b.SetBytes(totalBytes)
		for i := 0; i < b.N; i++ {
			x, _, err := core.LoadDumpDirOpts(dir, opts)
			if err != nil {
				b.Fatal(err)
			}
			if len(x.Routes) == 0 {
				b.Fatal("lost route objects")
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, core.LoadOptions{Sequential: true}) })
	b.Run("parallel", func(b *testing.B) { run(b, core.LoadOptions{Workers: 8}) })
}

// BenchmarkParseThroughput measures raw RPSL parse speed in bytes/sec
// over the biggest dump (Section 3's performance claim).
func BenchmarkParseThroughput(b *testing.B) {
	f := getFixture(b)
	text := f.sys.Universe.DumpText("RIPE")
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := parser.NewBuilder()
		bl.AddDump(rpsl.NewReader(strings.NewReader(text), "RIPE"))
		if len(bl.IR.AutNums) == 0 {
			b.Fatal("parse produced nothing")
		}
	}
}

// BenchmarkVerifyThroughput measures route verifications per second
// (Section 5's performance claim: 779 M routes in 2 h 49 m).
func BenchmarkVerifyThroughput(b *testing.B) {
	f := getFixture(b)
	routes := f.routes
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		rep := f.sys.Verifier.VerifyRoute(routes[n])
		_ = rep
		n++
		if n == len(routes) {
			n = 0
		}
	}
}

// BenchmarkASRegexMatch measures the symbolic AS-path regex engine
// (Appendix B) on the paper's Section 2 example pattern.
func BenchmarkASRegexMatch(b *testing.B) {
	re, err := parser.ParsePathRegex("^AS13911 AS6327+$")
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := asregex.Compile(re)
	if err != nil {
		b.Fatal(err)
	}
	path := []ir.ASN{13911, 6327, 6327, 6327}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !compiled.Match(path, 13911, nil) {
			b.Fatal("should match")
		}
	}
}

// BenchmarkAblationRegexProductVsNFA compares the production NFA
// matcher against the paper's literal Cartesian-product construction.
func BenchmarkAblationRegexProductVsNFA(b *testing.B) {
	re, err := parser.ParsePathRegex("^(AS1|AS2) .* AS9+$")
	if err != nil {
		b.Fatal(err)
	}
	compiled, err := asregex.Compile(re)
	if err != nil {
		b.Fatal(err)
	}
	path := []ir.ASN{1, 4, 5, 6, 7, 9, 9}
	b.Run("nfa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !compiled.Match(path, 1, nil) {
				b.Fatal("should match")
			}
		}
	})
	b.Run("product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !compiled.MatchProduct(path, 1, nil, 1<<22) {
				b.Fatal("should match")
			}
		}
	})
}

// BenchmarkAblationRouteLookup compares the binary-search prefix table
// (the paper's Appendix B design) with a linear scan.
func BenchmarkAblationRouteLookup(b *testing.B) {
	f := getFixture(b)
	var ranges []prefix.Range
	for _, r := range f.sys.IR.Routes {
		ranges = append(ranges, prefix.Range{Prefix: r.Prefix})
	}
	tbl := prefix.NewTable(ranges)
	probe := ranges[len(ranges)/2].Prefix
	miss := prefix.MustParse("203.0.113.0/24")
	b.Run("binary-search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if !tbl.Contains(probe) || tbl.Contains(miss) {
				b.Fatal("lookup wrong")
			}
		}
	})
	b.Run("linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			found := false
			for _, r := range ranges {
				if r.Match(probe) {
					found = true
					break
				}
			}
			if !found {
				b.Fatal("lookup wrong")
			}
		}
	})
}

// BenchmarkAblationParallelVerify compares single-threaded and
// parallel verification over the same batch.
func BenchmarkAblationParallelVerify(b *testing.B) {
	f := getFixture(b)
	batch := f.routes
	if len(batch) > 4000 {
		batch = batch[:4000]
	}
	for _, workers := range []int{1, 4} {
		name := "workers-1"
		if workers != 1 {
			name = "workers-4"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reps := f.sys.Verifier.VerifyAll(batch, workers)
				if len(reps) != len(batch) {
					b.Fatal("missing reports")
				}
			}
		})
	}
}

// BenchmarkAblationFlattenMemo compares the SCC-based as-set
// flattening (built once per database) against naive per-query
// recursive flattening with a visited set.
func BenchmarkAblationFlattenMemo(b *testing.B) {
	f := getFixture(b)
	x := f.sys.IR
	// Pick the deepest generated chain's root.
	const root = "AS-DEEP0-L0"
	if _, ok := x.AsSets[root]; !ok {
		b.Skip("deep chain not present at this scale")
	}
	b.Run("scc-precomputed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			flat, ok := f.sys.DB.AsSet(root)
			if !ok || len(flat.ASNs) == 0 {
				b.Fatal("flatten failed")
			}
		}
	})
	b.Run("naive-recursion", func(b *testing.B) {
		var flatten func(name string, seen map[string]bool, out map[ir.ASN]struct{})
		flatten = func(name string, seen map[string]bool, out map[ir.ASN]struct{}) {
			if seen[name] {
				return
			}
			seen[name] = true
			set, ok := x.AsSets[name]
			if !ok {
				return
			}
			for _, a := range set.MemberASNs {
				out[a] = struct{}{}
			}
			for _, m := range set.MemberSets {
				flatten(m, seen, out)
			}
		}
		for i := 0; i < b.N; i++ {
			out := make(map[ir.ASN]struct{})
			flatten(root, make(map[string]bool), out)
			if len(out) == 0 {
				b.Fatal("flatten failed")
			}
		}
	})
}

// BenchmarkBGPSimulation measures Gao–Rexford propagation per
// destination (the substrate's own cost).
func BenchmarkBGPSimulation(b *testing.B) {
	f := getFixture(b)
	dest := f.sys.Topo.Order[len(f.sys.Topo.Order)/2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := f.sys.Sim.PathsTo(dest)
		if len(paths) == 0 {
			b.Fatal("no paths")
		}
	}
}

// journalFixture holds the NRTM benchmark inputs: a parsed base
// snapshot, one evolution step's journals at 1% churn, and the next
// snapshot's dump texts for the full-reparse baseline. For the
// incremental re-verification benchmark it also carries both snapshot
// databases plus the touched-key sets for the A→B and B→A applies, so
// BenchmarkReverify can flip-flop between the two states without ever
// hitting a no-op delta.
type journalFixture struct {
	baseDB   *irr.Database
	journals []*nrtm.Journal
	next     map[string]string
	dbB      *irr.Database  // snapshot after applying journals to baseDB
	dbA2     *irr.Database  // snapshot after applying the reverse journals to dbB
	keysAB   []depgraph.Key // touched keys of the A→B apply
	keysBA   []depgraph.Key // touched keys of the B→A apply
}

var (
	jfixOnce sync.Once
	jfix     journalFixture
)

func getJournalFixture(b *testing.B) *journalFixture {
	b.Helper()
	f := getFixture(b)
	jfixOnce.Do(func() {
		prev := f.sys.IR
		cfg := irrgen.EvolveConfig{Seed: 42} // defaults: 1% policy/set churn
		next := irrgen.Evolve(prev, 1, cfg)
		// One serial counter shared across both directions so the reverse
		// journals continue where the forward ones left off; the forward
		// batch still starts at serial 1, keeping it replayable from a
		// fresh mirror of baseDB (BenchmarkApplyJournal relies on that).
		serials := make(map[string]uint64)
		journals := evolve.Compare(prev, next).ToJournals(prev, next, serials)
		if len(journals) == 0 {
			panic("evolution produced no journals")
		}
		reverse := evolve.Compare(next, prev).ToJournals(next, prev, serials)
		mir := nrtm.NewMirrorDB(irr.New(prev), nil, nil)
		keysAB, err := mir.ApplyAllKeys(journals)
		if err != nil {
			panic(err)
		}
		dbB := mir.DB()
		keysBA, err := mir.ApplyAllKeys(reverse)
		if err != nil {
			panic(err)
		}
		jfix = journalFixture{
			baseDB:   irr.New(prev),
			journals: journals,
			next:     render.IR(next),
			dbB:      dbB,
			dbA2:     mir.DB(),
			keysAB:   keysAB,
			keysBA:   keysBA,
		}
	})
	return &jfix
}

// BenchmarkApplyJournal measures reaching snapshot B incrementally:
// clone the base database, apply one evolution step's journals, and
// rebuild only the affected indexes. Compare against
// BenchmarkFullReparse, which reaches the same snapshot from the raw
// dumps; the ISSUE contract is ≥ 10× at 1% churn.
func BenchmarkApplyJournal(b *testing.B) {
	jf := getJournalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mir := nrtm.NewMirrorDB(jf.baseDB, nil, nil)
		if err := mir.ApplyAll(jf.journals); err != nil {
			b.Fatal(err)
		}
		if mir.DB() == jf.baseDB {
			b.Fatal("apply published nothing")
		}
	}
}

// BenchmarkFullReparse is the baseline BenchmarkApplyJournal beats:
// parse snapshot B's 13 dumps from scratch and index them.
func BenchmarkFullReparse(b *testing.B) {
	jf := getJournalFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var dumps []core.Dump
		for _, name := range irrgen.IRRs {
			if text, ok := jf.next[name]; ok {
				dumps = append(dumps, core.Dump{Name: name, R: strings.NewReader(text)})
			}
		}
		db := irr.New(core.ParseDumps(dumps...))
		if len(db.IR.AutNums) == 0 {
			b.Fatal("reparse produced nothing")
		}
	}
}

// BenchmarkLint measures the linter over the synthetic registry.
func BenchmarkLint(b *testing.B) {
	f := getFixture(b)
	l := lint.New(f.sys.DB, f.sys.Rels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(l.Run()) == 0 {
			b.Fatal("no findings on synthetic data")
		}
	}
}

// BenchmarkVerifyAll measures one full verification sweep over the
// collector batch, comparing the compiled evaluation core against the
// tree-walking interpreter the differential tests hold it to. Each
// engine is warmed once so the numbers are steady-state: program
// compilation and lazy as-set table builds land outside the timed
// region.
func BenchmarkVerifyAll(b *testing.B) {
	f := getFixture(b)
	for _, bc := range []struct {
		name string
		cfg  verify.Config
	}{
		{"compiled", verify.Config{}},
		{"interp", verify.Config{Eval: "interp"}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			v := verify.New(f.sys.DB, f.sys.Rels, bc.cfg)
			v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reports := v.VerifyAll(f.routes, 0)
				if len(reports) != len(f.routes) {
					b.Fatal("missing reports")
				}
			}
			b.ReportMetric(float64(b.N*len(f.routes))/b.Elapsed().Seconds(), "routes/s")
		})
	}
	// The same sweep taken route by route, the way an incremental step
	// re-verifies a dirty route: exact-size reports and no pair sharing,
	// which only a bulk pass over many routes can use. It is the
	// denominator of verify.sh's incremental gate.
	b.Run("per-route", func(b *testing.B) {
		v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
		v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
		reports := make([]verify.RouteReport, len(f.routes))
		workers := runtime.GOMAXPROCS(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := w; j < len(f.routes); j += workers {
						reports[j] = v.VerifyRoute(f.routes[j])
					}
				}()
			}
			wg.Wait()
		}
	})
	// Heap cost of a retained sweep's report set, per route; verify.sh
	// gates it against an absolute ceiling.
	b.Run("heap-compiled", func(b *testing.B) {
		v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
		v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
		for i := 0; i < b.N; i++ {
			var reports []verify.RouteReport
			live, peak := measureHeap(func() {
				reports = v.VerifyAll(f.routes, 0)
			})
			if len(reports) != len(f.routes) {
				b.Fatal("missing reports")
			}
			n := float64(len(reports))
			b.ReportMetric(float64(live)/n, "live-B/route")
			b.ReportMetric(float64(peak)/n, "peak-B/route")
			runtime.KeepAlive(reports)
		}
	})
}

// BenchmarkReverify measures one incremental re-verification step at
// 1% churn: the engine starts warm on snapshot A, then each iteration
// applies the touched-key delta for the next snapshot and re-executes
// only the dirty routes. Iterations alternate A→B and B→A so every
// step sees a real delta. verify.sh gates this against
// BenchmarkVerifyAll/per-route — incremental must be ≥ 20× faster than
// re-verifying every route the way a step re-verifies a dirty one.
func BenchmarkReverify(b *testing.B) {
	f := getFixture(b)
	jf := getJournalFixture(b)
	inc, err := verify.NewIncremental(jf.baseDB, f.sys.Rels, verify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	inc.Init(f.routes, 0)
	var dirtyRoutes, dirtyPrograms int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res verify.ReverifyResult
		if i%2 == 0 {
			res = inc.Reverify(jf.dbB, jf.keysAB, 0, nil)
		} else {
			res = inc.Reverify(jf.dbA2, jf.keysBA, 0, nil)
		}
		if res.Full {
			b.Fatal("incremental step fell back to full verification")
		}
		if res.Routes == 0 {
			b.Fatal("delta dirtied no routes")
		}
		dirtyRoutes, dirtyPrograms = res.Routes, len(res.Programs)
	}
	b.ReportMetric(float64(dirtyRoutes), "dirty-routes")
	b.ReportMetric(float64(dirtyPrograms), "dirty-programs")
}

// BenchmarkVerifyAllTraced is BenchmarkVerifyAll/compiled with what
// reportd attaches to its verifier: verify.Metrics, a sampling tracer
// (verify 1-in-1024, compile 1-in-16, the reportd defaults), a
// heavy-hitter profiler and the shard fan-out metrics. verify.sh gates
// the ratio against the bare compiled number — the instrumentation
// must cost <5%.
func BenchmarkVerifyAllTraced(b *testing.B) {
	f := getFixture(b)
	v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{Eval: "compiled"})
	reg := telemetry.NewRegistry("bench-traced")
	tr := trace.New(trace.Config{Sample: map[string]int{"verify": 1024, "compile": 16}})
	prof := verify.NewProfiler(64)
	prof.Register(tr)
	m := verify.NewMetrics(reg)
	v.SetMetrics(m)
	v.SetTracer(tr)
	v.SetProfiler(prof)
	v.SetShardMetrics(shard.NewMetrics(reg))
	v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reports := v.VerifyAll(f.routes, 0)
		if len(reports) != len(f.routes) {
			b.Fatal("missing reports")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(f.routes))/b.Elapsed().Seconds(), "routes/s")
	if len(prof.SlowRoutes.Top(1)) == 0 {
		b.Fatal("profiler saw no routes")
	}
	if m.RoutesVerified.Value() == 0 {
		b.Fatal("metrics saw no routes")
	}
}

// BenchmarkOriginsOf measures exact-match origin lookup through the
// radix LPM index across the collector batch's prefixes.
func BenchmarkOriginsOf(b *testing.B) {
	f := getFixture(b)
	n := min(len(f.routes), 1024)
	prefixes := make([]prefix.Prefix, n)
	for i := 0; i < n; i++ {
		prefixes[i] = f.routes[i].Prefix
	}
	db := f.sys.DB
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.OriginsOf(prefixes[i%n])
	}
}

// BenchmarkBuildSnapshot measures the report-store freeze over the
// fixture's retained sweep, the step reportd pays once per applied
// journal: ns/op and B/op from the timed loop, then one more build
// between heap fences for what the snapshot retains (live-B/route) and
// what it allocated to get there (alloc-B/route). verify.sh gates the
// ratio of the two and the retained figure.
func BenchmarkBuildSnapshot(b *testing.B) {
	f := getFixture(b)
	var snap *reportstore.Snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap = reportstore.BuildSnapshot(f.reports)
	}
	b.StopTimer()
	if snap.NumRoutes() != len(f.reports) {
		b.Fatal("missing routes")
	}
	snap = nil // measureHeap collects first: the fences must see one snapshot, not two
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	live, _ := measureHeap(func() { snap = reportstore.BuildSnapshot(f.reports) })
	runtime.ReadMemStats(&after)
	n := float64(len(f.reports))
	b.ReportMetric(float64(live)/n, "live-B/route")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "alloc-B/route")
	runtime.KeepAlive(snap)
}
