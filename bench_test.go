// Package rpslyzer's root benchmark harness: one benchmark per table
// and figure in the paper's evaluation, the two performance claims
// (parse throughput, Section 3; verification throughput, Section 5),
// the ablations DESIGN.md calls out, and the two timing gates of
// scripts/verify.sh, which assert their own bounds. The system's
// end-to-end and per-layer timings are bench/'s. Run with:
//
//	go test -bench=. -benchmem
package rpslyzer

import (
	"cmp"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rpslyzer/internal/asregex"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/lint"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
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

func getFixture(tb testing.TB) *fixture {
	tb.Helper()
	fixOnce.Do(func() {
		sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 800, Collectors: 8})
		if err != nil {
			panic(err)
		}
		routes := sys.CollectRoutes(8, 42)
		reports := sys.Verifier.VerifyAll(routes, 0)
		fix = fixture{sys: sys, routes: routes, reports: reports, agg: aggregateReports(reports)}
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

// BenchmarkParseThroughput measures raw RPSL parse speed in bytes/sec
// over the biggest dump (Section 3's performance claim), then indexes
// what it parsed: with -benchmem -cpuprofile -memprofile it is the
// profile of an ingest, reader to route trie, on one goroutine.
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
		if db := irr.NewSharded(bl.IR, 1); db.Shards() != 1 {
			b.Fatal("index not built")
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
// collector batch on the tree-walking interpreter the differential
// tests hold the compiled core to (Config.Eval "interp"; the compiled
// sweep is bench/'s verify.cold_sweep_s and verify.warm_sweep_s). The
// engine is warmed once so lazy as-set table builds land outside the
// timed region.
func BenchmarkVerifyAll(b *testing.B) {
	f := getFixture(b)
	b.Run("interp", func(b *testing.B) {
		v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{Eval: "interp"})
		v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if len(v.VerifyAll(f.routes, 0)) != len(f.routes) {
				b.Fatal("missing reports")
			}
		}
		b.ReportMetric(float64(b.N*len(f.routes))/b.Elapsed().Seconds(), "routes/s")
	})
}

// median sorts xs and returns its middle element.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// BenchmarkReverify measures one incremental re-verification step at
// 1% churn and asserts what it is for: the engine starts warm on
// snapshot A, then each step applies the touched-key delta for the
// other snapshot and re-executes only the dirty routes, alternating
// A→B and B→A so every step sees a real delta. The median step must be
// at least 20x faster than verifying every route of the corpus the way
// a step verifies a dirty one (VerifyRoute: exact-size reports, no
// pair sharing), or the benchmark fails; both sides are timed here, in
// one process, at least nine steps against the median of three sweeps.
func BenchmarkReverify(b *testing.B) {
	f := getFixture(b)
	prev := f.sys.IR
	next := irrgen.Evolve(prev, 1, irrgen.EvolveConfig{Seed: 42}) // defaults: 1% policy/set churn
	// One serial counter across both directions, so the reverse journals
	// continue where the forward ones left off.
	serials := make(map[string]uint64)
	mir := nrtm.NewMirrorDB(irr.New(prev), nil, nil)
	keysAB, err := mir.ApplyAllKeys(evolve.Compare(prev, next).ToJournals(prev, next, serials))
	if err != nil {
		b.Fatal(err)
	}
	dbB := mir.DB()
	keysBA, err := mir.ApplyAllKeys(evolve.Compare(next, prev).ToJournals(next, prev, serials))
	if err != nil {
		b.Fatal(err)
	}
	dbA := mir.DB()
	inc, err := verify.NewIncremental(irr.New(prev), f.sys.Rels, verify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	inc.Init(f.routes, 0)

	v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
	v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
	reports := make([]verify.RouteReport, len(f.routes))
	workers := runtime.GOMAXPROCS(0)
	sweeps := make([]time.Duration, 3)
	for k := range sweeps {
		t0 := time.Now()
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
		sweeps[k] = time.Since(t0)
	}

	steps := make([]time.Duration, max(b.N, 9))
	var res verify.ReverifyResult
	for i := range steps {
		t0 := time.Now()
		if i%2 == 0 {
			res = inc.Reverify(dbB, keysAB, 0, nil)
		} else {
			res = inc.Reverify(dbA, keysBA, 0, nil)
		}
		steps[i] = time.Since(t0)
		if res.Full {
			b.Fatal("incremental step fell back to full verification")
		}
		if res.Routes == 0 {
			b.Fatal("delta dirtied no routes")
		}
	}
	step, sweep := median(steps), median(sweeps)
	speedup := float64(sweep) / float64(step)
	b.ReportMetric(float64(step), "ns/op")
	b.ReportMetric(float64(res.Routes), "dirty-routes")
	b.ReportMetric(float64(len(res.Programs)), "dirty-programs")
	b.ReportMetric(speedup, "speedup")
	if speedup < 20 {
		b.Fatalf("one step takes %v, every route %v: %.1fx, want >= 20x", step, sweep, speedup)
	}
}

// maxInstrumentationOverhead bounds BenchmarkVerifyAllTraced's median
// overhead fraction. With the sketches' eviction on a heap the
// instrumentation measures +5% to +7% (14 runs of 30 pairs on a shared
// 2-CPU host read -3% to +9.4%; runs of 15 pairs reached +12.6%, hence
// the 30).
const maxInstrumentationOverhead = 0.12

// BenchmarkVerifyAllTraced measures what reportd's instrumentation
// costs a sweep and asserts its bound: the compiled sweep bare, and
// with everything reportd attaches to its verifier — verify.Metrics, a
// sampling tracer (verify 1-in-1024, compile 1-in-16, the reportd
// defaults), a heavy-hitter profiler and the shard fan-out metrics —
// alternate in one process, whichever went second going first in the
// next pair, for at least thirty pairs, each sweep after a collection
// so none pays for its predecessor's garbage. The median of the pairs'
// instrumented/bare − 1 is reported as overhead-frac and must stay
// within maxInstrumentationOverhead, or the benchmark fails; ns/op and
// routes/s are the median instrumented sweep.
func BenchmarkVerifyAllTraced(b *testing.B) {
	f := getFixture(b)
	bare := verify.New(f.sys.DB, f.sys.Rels, verify.Config{Eval: "compiled"})
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
	sweep := func(v *verify.Verifier) time.Duration {
		runtime.GC()
		t0 := time.Now()
		if len(v.VerifyAll(f.routes, 0)) != len(f.routes) {
			b.Fatal("missing reports")
		}
		return time.Since(t0)
	}
	sweep(bare)
	sweep(v)
	pairs := max(b.N, 30)
	traced, fracs := make([]time.Duration, pairs), make([]float64, pairs)
	for i := range pairs {
		var base time.Duration
		if i%2 == 0 {
			base, traced[i] = sweep(bare), sweep(v)
		} else {
			traced[i], base = sweep(v), sweep(bare)
		}
		fracs[i] = float64(traced[i])/float64(base) - 1
	}
	overhead, op := median(fracs), median(traced)
	b.ReportMetric(float64(op), "ns/op")
	b.ReportMetric(float64(len(f.routes))/op.Seconds(), "routes/s")
	b.ReportMetric(overhead, "overhead-frac")
	if len(prof.SlowRoutes.Top(1)) == 0 {
		b.Fatal("profiler saw no routes")
	}
	if m.RoutesVerified.Value() == 0 {
		b.Fatal("metrics saw no routes")
	}
	if overhead > maxInstrumentationOverhead {
		b.Fatalf("instrumented sweep costs %+.1f%% over bare (median of %d pairs), want <= %.0f%%",
			100*overhead, pairs, 100*maxInstrumentationOverhead)
	}
}
