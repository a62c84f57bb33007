// Command experiments regenerates every table and figure of the
// paper's evaluation from a corpus directory in the layout cmd/irrgen
// writes: "<irr>.db" dumps, "as-rel.txt", and "routes.txt" (or
// "routes.mrt"). It prints Table 1 and Table 2, Figures 1 through 6,
// the Section 4 in-text statistics, the Section 5 verification
// summaries, and the Appendix E survey. Absolute numbers differ from
// the paper (the substrate is a simulator, not the June 2023
// Internet); the shapes are what reproduce.
//
// Without -corpus it writes the synthetic universe to a temporary
// directory, as irrgen does, and measures that. Rows whose heading
// says they need the generator read its ground truth (profiles,
// topology) or build universes of their own; under -corpus each of
// them prints a skip line instead.
//
// Usage:
//
//	experiments                 # run everything at the default scale
//	experiments -ases 5000      # larger universe
//	experiments -corpus data/   # the files on disk, real or generated
//	experiments -only figure4   # one row
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"rpslyzer/internal/aspa"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/lint"
	"rpslyzer/internal/report"
	"rpslyzer/internal/rov"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/survey"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// env is what the rows measure: the corpus as loaded from disk, the
// verified routes when a selected row reads them, and the generator's
// universe when this run wrote the corpus.
type env struct {
	w                io.Writer
	seed             int64
	ases, collectors int
	u                *irrgen.Universe // nil under -corpus
	err              error            // the first row that failed

	x      *ir.IR
	sizes  map[string]int64
	db     *irr.Database
	rels   *asrel.Database
	routes []bgpsim.Route
	agg    *report.Aggregator

	load, read, sweep time.Duration
}

// row is one table, figure or statistic. routes marks the rows that
// read the verified routes; gen the rows that need the generator.
type row struct {
	name, heading string
	routes, gen   bool
	print         func(e *env)
}

// skipLine replaces the body of a gen row under -corpus.
const skipLine = "skipped: needs the generator's ground truth"

// rows is every row, in print order; -only takes their names.
var rows = []row{
	{name: "table1", heading: "Table 1: IRRs used (synthetic)", print: table1},
	{name: "table2", heading: "Table 2: objects defined and referenced in rules", print: table2},
	{name: "figure1", heading: "Figure 1: CCDF of rules per aut-num", print: figure1},
	{name: "section4", heading: "Section 4 in-text statistics", print: section4},
	{name: "clutter", heading: "Registered vs announced prefixes", gen: true, print: clutter},
	{name: "figure2", heading: "Figure 2: verification status per AS", routes: true, print: figure2},
	{name: "figure3", heading: "Figure 3: verification status per AS pair", routes: true, print: figure3},
	{name: "figure4", heading: "Figure 4: verification status for all hops in BGP routes", routes: true, print: figure4},
	{name: "figure5", heading: "Figure 5: breakdown of unrecorded causes per AS", routes: true, print: figure5},
	{name: "figure6", heading: "Figure 6: breakdown of special cases per AS", routes: true, print: figure6},
	{name: "appendixE", heading: "Appendix E: survey of relaxed-filter intent", gen: true, print: appendixE},
	{name: "perf", heading: "Performance (Sections 3 and 5)", routes: true, print: perf},
	{name: "aspa", heading: "Extension: RPSL vs ASPA coverage (Section 6 related work)", routes: true, print: aspaCoverage},
	{name: "rov", heading: "Extension: ROV coverage", routes: true, gen: true, print: rovCoverage},
	{name: "recommendations", heading: "Extension: counterfactual — operators follow the paper's recommendations", routes: true, gen: true, print: recommendations},
	{name: "communities", heading: "Extension: community-filter interpretation (Appendix B limitation)", gen: true, print: communities},
	{name: "classify", heading: "Usage classification (Section 7 future work)", gen: true, print: classify},
	{name: "section5", heading: "Overall check statuses (Section 5.2)", routes: true, print: section5},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the whole command: args are the command line without the
// program name, the rows and the telemetry dump go to stdout, and the
// result is the exit status.
func run(args []string, stdout io.Writer) int {
	names := make([]string, len(rows))
	for i, r := range rows {
		names[i] = r.name
	}
	flags := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		corpus     = flags.String("corpus", "", "corpus directory in irrgen's layout (default: generate one into a temporary directory)")
		ases       = flags.Int("ases", 2000, "synthetic topology size")
		collectors = flags.Int("collectors", 20, "number of BGP collectors")
		seed       = flags.Int64("seed", 42, "deterministic seed")
		only       = flags.String("only", "", "run one row: "+strings.Join(names, ","))
	)
	flags.Parse(args)
	var selected []row
	for _, r := range rows {
		if *only == "" || strings.EqualFold(*only, r.name) {
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "experiments: unknown -only %q; valid: %s\n", *only, strings.Join(names, ", "))
		return 2
	}

	logger := telemetry.SetupLogger("experiments", nil)
	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(telemetry.Default()))...)
	e := &env{w: stdout, seed: *seed, ases: *ases, collectors: *collectors}
	if err := e.run(*corpus, selected); err != nil {
		logger.Error("experiments failed", "err", err)
		return 1
	}
	return 0
}

// run loads the corpus, writing it first when dir is empty, and prints
// the selected rows and the telemetry registry.
func (e *env) run(dir string, selected []row) error {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "experiments-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer func() { signal.Stop(sig); close(sig) }()
		go func() {
			if _, ok := <-sig; ok {
				os.RemoveAll(tmp)
				os.Exit(1)
			}
		}()
		if e.u, _, err = core.WriteUniverseStream(core.Options{Seed: e.seed, ASes: e.ases}, e.collectors, e.seed, tmp); err != nil {
			return err
		}
		dir = tmp
	}
	if err := e.loadCorpus(dir, selected); err != nil {
		return err
	}
	for _, r := range selected {
		heading := r.heading
		if r.gen {
			heading += " (needs the generator)"
		}
		fmt.Fprintf(e.w, "== %s ==\n", heading)
		if r.gen && e.u == nil {
			fmt.Fprintln(e.w, skipLine)
		} else if r.print(e); e.err != nil {
			return e.err
		}
		fmt.Fprintln(e.w)
	}
	fmt.Fprintln(e.w, "== Telemetry ==")
	return telemetry.Default().WritePrometheus(e.w)
}

// loadCorpus reads dir's dumps and relationships, and its routes when a
// selected row reads them, and verifies the routes.
func (e *env) loadCorpus(dir string, selected []row) error {
	start := time.Now()
	var err error
	if e.x, e.sizes, err = core.LoadDumpDir(dir); err != nil {
		return err
	}
	if e.rels, err = core.LoadRels(filepath.Join(dir, "as-rel.txt")); err != nil {
		return err
	}
	var v *verify.Verifier
	e.db, v = core.BuildFromIR(e.x, e.rels, verify.Config{})
	v.SetMetrics(verify.NewMetrics(telemetry.Default()))
	e.load = time.Since(start)

	if !slices.ContainsFunc(selected, func(r row) bool { return r.routes && (e.u != nil || !r.gen) }) {
		return nil
	}
	path := filepath.Join(dir, "routes.txt")
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		path = filepath.Join(dir, "routes.mrt")
	}
	start = time.Now()
	if e.routes, err = core.LoadRoutes(path); err != nil {
		return err
	}
	e.read = time.Since(start)
	start = time.Now()
	e.agg = report.NewAggregator()
	v.VerifyStream(e.routes, 0, e.agg.Add)
	e.sweep = time.Since(start)
	return nil
}

func pct[T int | int64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

func table1(e *env) {
	t := stats.Table1(e.x, e.sizes, irrgen.IRRs)
	fmt.Fprintf(e.w, "%-10s %10s %9s %9s %9s %9s\n", "IRR", "SIZE(MiB)", "aut-num", "route", "import", "export")
	for _, r := range append(t, stats.Table1Total(t)) {
		fmt.Fprintf(e.w, "%-10s %10.2f %9d %9d %9d %9d\n", r.IRR, r.SizeMiB, r.AutNums, r.Routes, r.Imports, r.Exports)
	}
}

func table2(e *env) {
	t2 := stats.ComputeTable2(e.x)
	fmt.Fprintf(e.w, "%-12s %9s %9s %9s %9s\n", "", "defined", "overall", "peering", "filter")
	for i, c := range []stats.Table2Counts{t2.AutNum, t2.AsSet, t2.RouteSet, t2.PeeringSet, t2.FilterSet} {
		name := []string{"aut-num", "as-set", "route-set", "peering-set", "filter-set"}[i]
		fmt.Fprintf(e.w, "%-12s %9d %9d %9d %9d\n", name, c.Defined, c.RefOverall, c.RefPeering, c.RefFilter)
	}
}

func figure1(e *env) {
	all, bq := stats.RuleCCDF(e.x)
	fmt.Fprintf(e.w, "%-8s %-10s %-10s\n", "rules>=", "all", "bgpq4")
	for _, n := range []int{1, 2, 5, 10, 20, 50, 100, 1000} {
		fmt.Fprintf(e.w, "%-8d %-10.4f %-10.4f\n", n, stats.FracWithAtLeast(all, n), stats.FracWithAtLeast(bq, n))
	}
}

func section4(e *env) {
	w := e.w
	s4 := stats.ComputeSection4(e.x)
	fmt.Fprintf(w, "aut-nums with no rules: %.1f%% (paper: 35.2%%)\n", pct(s4.AutNumsNoRules, s4.AutNums))
	fmt.Fprintf(w, "simple peerings: %.1f%% (paper: 98.4%%)\n", pct(s4.SimplePeerings, s4.Peerings))
	fmt.Fprintf(w, "BGPq4-compatible rule-writing ASes: %.1f%% (paper: 94.5%%)\n", pct(s4.ASesBGPq4Only, s4.ASesWithRules))
	fmt.Fprintf(w, "aut-nums: %d; with no rules: %d; >=10 rules: %d (%.1f%%); >=1000 rules: %d\n",
		s4.AutNums, s4.AutNumsNoRules, s4.AutNums10Plus, pct(s4.AutNums10Plus, s4.AutNums), s4.AutNums1000Plus)
	fmt.Fprintf(w, "simple peerings (single ASN or ANY): %d/%d; BGPq4-compatible rule-writing ASes: %d/%d\n",
		s4.SimplePeerings, s4.Peerings, s4.ASesBGPq4Only, s4.ASesWithRules)
	fc, filters := s4.FilterClasses, 0
	for _, n := range fc {
		filters += n
	}
	fmt.Fprintln(w, "filter classes:")
	for _, c := range slices.SortedFunc(maps.Keys(fc), func(a, b string) int { return cmp.Or(fc[b]-fc[a], strings.Compare(a, b)) }) {
		fmt.Fprintf(w, "  %-14s %7d (%.1f%%)\n", c, fc[c], pct(fc[c], filters))
	}

	ro := stats.ComputeRouteObjectStats(e.x)
	fmt.Fprintf(w, "route objects: %d over %d unique prefixes\n", ro.Objects, ro.UniquePrefixes)
	fmt.Fprintf(w, "multi-object prefixes: %.1f%% (paper: 24.7%%); of those multi-origin: %.1f%% (paper: 58.1%%)\n",
		pct(ro.MultiObjectPrefixes, ro.UniquePrefixes), pct(ro.MultiOriginPrefixes, ro.MultiObjectPrefixes))
	fmt.Fprintf(w, "unique prefix-origin pairs: %d; multi-object prefixes: %d; multi-origin: %d; multi-operator: %d (%.1f%%)\n",
		ro.UniquePrefixOrigin, ro.MultiObjectPrefixes, ro.MultiOriginPrefixes,
		ro.MultiSourcePrefixes, pct(ro.MultiSourcePrefixes, ro.UniquePrefixes))

	as := stats.ComputeAsSetStats(e.db)
	fmt.Fprintf(w, "as-sets: %d; empty %.1f%% (paper: 14.5%%); single-member %.1f%% (paper: 32.7%%); loops %d; depth>=5 %d\n",
		as.Total, pct(as.Empty, as.Total), pct(as.SingleMember, as.Total), as.InLoop, as.Depth5Plus)
	fmt.Fprintf(w, "as-sets empty: %d; single-member: %d; with ANY member: %d; >10k members: %d; recursive: %d (%.1f%%), of which in loops %.1f%% and depth>=5 %.1f%%\n",
		as.Empty, as.SingleMember, as.ContainsANY, as.Huge, as.Recursive, pct(as.Recursive, as.Total),
		pct(as.InLoop, as.Recursive), pct(as.Depth5Plus, as.Recursive))

	census := stats.ErrorCensus(e.x)
	fmt.Fprintf(w, "errors: %d syntax, %d invalid as-set names, %d invalid route-set names\n",
		census["syntax"], census["invalid-as-set-name"], census["invalid-route-set-name"])
	fmt.Fprintln(w, "errors by kind:")
	for _, k := range slices.Sorted(maps.Keys(census)) {
		fmt.Fprintf(w, "  %-24s %d\n", k, census[k])
	}
}

// clutter compares the registered prefix-origin pairs with what the
// topology announces, which only the generator knows.
func clutter(e *env) {
	announced := 0
	for _, asn := range e.u.Topo.Order {
		announced += len(e.u.Topo.ASes[asn].Prefixes)
	}
	ro := stats.ComputeRouteObjectStats(e.x)
	fmt.Fprintf(e.w, "%d prefix-origin pairs registered over %d announced prefixes (x%.1f registered-vs-announced clutter)\n",
		ro.UniquePrefixOrigin, announced, float64(ro.UniquePrefixOrigin)/float64(max(1, announced)))
}

func figure2(e *env) {
	f2 := e.agg.Figure2()
	fmt.Fprintf(e.w, "ASes with checks: %d; single-status ASes: %d (%.1f%%, paper: 74.4%%)\n",
		f2.ASes, f2.SingleStatusTotal, pct(f2.SingleStatusTotal, int64(f2.ASes)))
	for st := verify.Verified; st <= verify.Unverified; st++ {
		fmt.Fprintf(e.w, "  all-%-11s %6d ASes (%.1f%%)\n", st, f2.SingleStatus[st], pct(f2.SingleStatus[st], int64(f2.ASes)))
	}
}

func figure3(e *env) {
	f3 := e.agg.Figure3()
	fmt.Fprintf(e.w, "directed pairs: %d\n", f3.Pairs)
	fmt.Fprintf(e.w, "import single-status pairs: %.1f%% (paper: 91.7%%); export: %.1f%% (paper: 92%%)\n",
		pct(f3.ImportSingleStatus, int64(f3.Pairs)), pct(f3.ExportSingleStatus, int64(f3.Pairs)))
	fmt.Fprintf(e.w, "pairs with unverified checks: %d (%.1f%%, paper: 63.0%%)\n",
		f3.PairsWithUnverified, pct(f3.PairsWithUnverified, int64(f3.Pairs)))
	fmt.Fprintf(e.w, "of those, undeclared-peering only: %.2f%% (paper: 98.98%%)\n",
		pct(f3.UnverifiedPeeringOnly, f3.PairsWithUnverified))
}

func figure4(e *env) {
	f4 := e.agg.Figure4()
	fmt.Fprintf(e.w, "routes: %d; single-status routes: %.1f%% (paper: 6.6%%)\n", f4.Routes, pct(f4.SingleStatusTotal, f4.Routes))
	fmt.Fprintf(e.w, "  all-verified %.1f%% (paper 1.6%%), all-unrecorded %.1f%% (paper 3.0%%), all-unverified %.1f%% (paper 1.6%%)\n",
		pct(f4.SingleStatus[verify.Verified], f4.Routes),
		pct(f4.SingleStatus[verify.Unrecorded], f4.Routes),
		pct(f4.SingleStatus[verify.Unverified], f4.Routes))
	fmt.Fprintf(e.w, "two-status routes: %.1f%%; three+: %.1f%%\n", pct(f4.TwoStatuses, f4.Routes), pct(f4.ThreePlus, f4.Routes))
	fh := e.agg.FirstHop.Fractions()
	fmt.Fprintf(e.w, "first-hop statuses: verified=%.1f%% unrecorded=%.1f%% safelisted=%.1f%% unverified=%.1f%%\n",
		100*fh[verify.Verified], 100*fh[verify.Unrecorded], 100*fh[verify.Safelisted], 100*fh[verify.Unverified])
}

func figure5(e *env) {
	f5 := e.agg.Figure5()
	fmt.Fprintf(e.w, "ASes with unrecorded checks: %d\n", f5.ASesWithUnrecorded)
	for c := report.CauseNoAutNum; c <= report.CauseMissingSet; c++ {
		fmt.Fprintf(e.w, "  %-16s %6d ASes\n", c, f5.ByCause[c])
	}
}

func figure6(e *env) {
	f6 := e.agg.Figure6()
	fmt.Fprintf(e.w, "ASes with special cases: %d (%.1f%%, paper: 30.9%%); with unverified: %d (%.1f%%, paper: 12.4%%)\n",
		f6.ASesWithSpecial, pct(f6.ASesWithSpecial, f6.ASes), f6.ASesWithUnverified, pct(f6.ASesWithUnverified, f6.ASes))
	for c := report.CauseExportSelf; c < report.NumCauses; c++ {
		fmt.Fprintf(e.w, "  %-24s %6d ASes (%.1f%%)\n", c, f6.ByCause[c], pct(f6.ByCause[c], f6.ASes))
	}
}

func appendixE(e *env) {
	cands := survey.ExtractCandidates(e.x, e.rels)
	// The generator wrote every candidate's rules with relaxed intent;
	// the paper's three responses all confirmed the same.
	oracle := survey.OracleFunc(func(asn ir.ASN, _ survey.Pattern) survey.Intent {
		if e.u.Profiles[asn] == nil {
			return survey.IntentOther
		}
		return survey.IntentRelaxed
	})
	res := survey.Run(cands, oracle, e.seed, 181.0/1102.0, 3.0/181.0)
	fmt.Fprintf(e.w, "candidate ASes: %d (paper: 1102); contactable: %d (paper: 181); responses: %d (paper: 3)\n",
		res.Candidates, res.Contactable, res.Responses)
	var intents []string
	for i, n := range res.ByIntent {
		intents = append(intents, fmt.Sprintf("%s=%d", i, n))
	}
	slices.Sort(intents)
	fmt.Fprintf(e.w, "responses by intent: %s (paper: all relaxed)\n", strings.Join(intents, " "))
}

func perf(e *env) {
	var bytes int64
	for _, sz := range e.sizes {
		bytes += sz
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(e.w, "heap in use: %.1f MiB (paper: < 2 GiB RAM)\n", float64(ms.HeapInuse)/(1<<20))
	fmt.Fprintf(e.w, "parse+index: %.1f MiB in %v (paper: 6.9 GiB < 5 min)\n", float64(bytes)/(1<<20), e.load.Round(time.Millisecond))
	fmt.Fprintf(e.w, "route load: %d routes in %v\n", len(e.routes), e.read.Round(time.Millisecond))
	fmt.Fprintf(e.w, "verification: %d routes, %d checks in %v = %.0f routes/s on %d partitions (paper: 779M routes in 2h49m)\n",
		e.agg.Routes, e.agg.Checks.Total(), e.sweep.Round(time.Millisecond),
		float64(e.agg.Routes)/e.sweep.Seconds(), runtime.GOMAXPROCS(0))
}

// adoptions are the deployment levels the coverage rows compare at,
// each over the first 100 000 routes.
var adoptions = []float64{0.25, 0.5, 1.0}

func (e *env) sample() []bgpsim.Route { return e.routes[:min(len(e.routes), 100000)] }

// aspaCoverage compares how many routes ASPA can decide with how many
// checks the RPSL decides. The paper: "Our analysis in Section 5
// follows this approach using the RPSL instead of ASPA's provider
// relationships."
func aspaCoverage(e *env) {
	sample := e.sample()
	for _, adopt := range adoptions {
		adb := aspa.FromRelationships(e.rels, adopt, e.seed)
		var n [3]int
		for _, r := range sample {
			n[adb.VerifyUpstreamPath(aspa.DedupePrepends(r.Path))]++
		}
		fmt.Fprintf(e.w, "ASPA adoption %3.0f%%: valid %5.1f%%  invalid %4.1f%%  unknown %5.1f%%\n", 100*adopt,
			pct(n[aspa.Valid], len(sample)), pct(n[aspa.Invalid], len(sample)), pct(n[aspa.Unknown], len(sample)))
	}
	fr := e.agg.Checks.Fractions()
	fmt.Fprintf(e.w, "RPSL (this paper's approach): %.1f%% of checks decided strictly\n",
		100*(fr[verify.Verified]+fr[verify.Unverified]))
	fmt.Fprintln(e.w, "(ROV checks only the origin; ASPA decides valley-freeness; the RPSL")
	fmt.Fprintln(e.w, " additionally filters prefixes per neighbor — richer intent, weaker")
	fmt.Fprintln(e.w, " authentication)")
}

// rovCoverage is ROV on the same routes, with ROAs drawn from the
// prefixes the topology originates.
func rovCoverage(e *env) {
	sample := e.sample()
	for _, adopt := range adoptions {
		rdb := rov.FromTopology(e.u.Topo, adopt, e.seed)
		var n [3]int
		for _, r := range sample {
			p := aspa.DedupePrepends(r.Path)
			n[rdb.Validate(r.Prefix, p[len(p)-1])]++
		}
		fmt.Fprintf(e.w, "ROV adoption %3.0f%%:  valid %5.1f%%  invalid %4.1f%%  not-found %3.1f%%\n", 100*adopt,
			pct(n[rov.Valid], len(sample)), pct(n[rov.Invalid], len(sample)), pct(n[rov.NotFound], len(sample)))
	}
}

// recommendations regenerates the same topology with the misuses fixed
// (no export-self, no import-customer, maintained route objects,
// route-sets in use) and full provider/customer rule coverage, then
// compares verification outcomes.
func recommendations(e *env) {
	rsys, err := core.BuildSynthetic(core.Options{
		Seed: e.seed, ASes: e.ases,
		Gen: irrgen.Config{
			ExportSelfFrac:     1e-9,
			ImportCustomerFrac: 1e-9,
			MissingRouteFrac:   1e-9,
			ProviderRuleFrac:   0.999,
			CustomerRuleFrac:   0.999,
			PeerRuleFrac:       0.95,
			MissingAutNumFrac:  1e-9,
			NoRulesFrac:        1e-9,
		},
	})
	if e.err = err; err != nil {
		return
	}
	ragg := rsys.VerifyRoutes(rsys.CollectRoutes(e.collectors, e.seed))
	fr, rfr := e.agg.Checks.Fractions(), ragg.Checks.Fractions()
	fmt.Fprintf(e.w, "%-12s %14s %16s\n", "status", "as-measured", "recommendations")
	for st := verify.Verified; st <= verify.Unverified; st++ {
		fmt.Fprintf(e.w, "%-12s %13.2f%% %15.2f%%\n", st, 100*fr[st], 100*rfr[st])
	}
	fmt.Fprintf(e.w, "(checks: %d vs %d; full adoption converts unrecorded mass into\n", e.agg.Checks.Total(), ragg.Checks.Total())
	fmt.Fprintln(e.w, " verified, and fixing the six misuses empties the relaxed/safelisted bins)")
}

// communities builds a small universe where community-filter rules are
// common, tags routes with the BLACKHOLE community, strips a fraction
// in flight, and compares the paper's skip behaviour with the opt-in
// interpretation mode.
func communities(e *env) {
	csys, err := core.BuildSynthetic(core.Options{
		Seed: e.seed + 1, ASes: 500,
		Gen: irrgen.Config{CommunityFilterFrac: 0.5},
	})
	if e.err = err; err != nil {
		return
	}
	tagged := csys.Sim.CollectRoutes(csys.Sim.DefaultCollectors(4), bgpsim.Options{
		Seed: e.seed, CommunityFrac: 0.5, StripCommunityFrac: 0.3,
	})
	_, vInt := core.BuildFromIR(csys.IR, csys.Rels, verify.Config{InterpretCommunities: true})
	aggSkip := csys.VerifyRoutes(tagged)
	aggInt := report.NewAggregator()
	vInt.VerifyStream(tagged, 0, aggInt.Add)
	fmt.Fprintf(e.w, "skip mode (paper):    skip=%d verified=%d unverified=%d\n",
		aggSkip.Checks[verify.Skip], aggSkip.Checks[verify.Verified], aggSkip.Checks[verify.Unverified])
	fmt.Fprintf(e.w, "interpretation mode:  skip=%d verified=%d unverified=%d\n",
		aggInt.Checks[verify.Skip], aggInt.Checks[verify.Verified], aggInt.Checks[verify.Unverified])
	fmt.Fprintln(e.w, "(stripped communities surface as extra unverified checks — the")
	fmt.Fprintln(e.w, " false-negative risk that justifies the paper's conservative skip)")
}

func classify(e *env) {
	order := e.u.Topo.Order
	counts := lint.ClassifyAll(e.db, order)
	for u := lint.UsageNoAutNum; u < lint.NumUsageClasses; u++ {
		fmt.Fprintf(e.w, "  %-12s %6d ASes (%.1f%%)\n", u, counts[u], pct(counts[u], len(order)))
	}
}

func section5(e *env) {
	fr := e.agg.Checks.Fractions()
	for st := verify.Verified; st <= verify.Unverified; st++ {
		fmt.Fprintf(e.w, "  %-11s %9d  (%.2f%%)\n", st, e.agg.Checks[st], 100*fr[st])
	}
}
