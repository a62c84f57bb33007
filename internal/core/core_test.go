package core

import (
	"strings"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/report"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/verify"
)

// buildSmall builds a small synthetic system shared across tests.
func buildSmall(t *testing.T) *System {
	t.Helper()
	sys, err := BuildSynthetic(Options{Seed: 42, ASes: 400, Collectors: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestParseText(t *testing.T) {
	x := ParseText("aut-num: AS1\nimport: from AS2 accept ANY\n", "T")
	if len(x.AutNums) != 1 || len(x.AutNums[1].Imports) != 1 {
		t.Fatalf("IR = %+v", x.AutNums)
	}
}

func TestBuildSyntheticParses(t *testing.T) {
	sys := buildSmall(t)
	if len(sys.IR.AutNums) == 0 {
		t.Fatal("no aut-nums parsed")
	}
	// Roughly 27% of ASes must lack aut-num objects.
	total := len(sys.Topo.Order)
	withAutNum := 0
	for _, asn := range sys.Topo.Order {
		if _, ok := sys.IR.AutNums[asn]; ok {
			withAutNum++
		}
	}
	frac := float64(withAutNum) / float64(total)
	if frac < 0.6 || frac > 0.85 {
		t.Errorf("aut-num coverage = %.2f, want ~0.73", frac)
	}
	if len(sys.IR.Routes) == 0 || len(sys.IR.AsSets) == 0 {
		t.Error("routes or as-sets missing")
	}
	if len(sys.IR.Errors) == 0 {
		t.Error("no injected errors surfaced")
	}
}

func TestEndToEndVerification(t *testing.T) {
	sys := buildSmall(t)
	routes := sys.CollectRoutes(6, 1)
	if len(routes) < 1000 {
		t.Fatalf("routes = %d, too few", len(routes))
	}
	agg := sys.VerifyRoutes(routes)
	if agg.Routes == 0 {
		t.Fatal("no routes verified")
	}
	total := agg.Checks.Total()
	if total == 0 {
		t.Fatal("no checks")
	}
	fr := agg.Checks.Fractions()
	t.Logf("checks=%d fractions: verified=%.3f skip=%.3f unrecorded=%.3f relaxed=%.3f safelisted=%.3f unverified=%.3f",
		total, fr[verify.Verified], fr[verify.Skip], fr[verify.Unrecorded],
		fr[verify.Relaxed], fr[verify.Safelisted], fr[verify.Unverified])

	// Shape checks against the paper (Section 5.2): every status class
	// must arise organically, unrecorded must be a large chunk
	// (paper: 40.4% of interconnections lack information), and strict
	// verification must be substantial (paper: 29.3%).
	if fr[verify.Unrecorded] < 0.15 {
		t.Errorf("unrecorded fraction %.3f too small", fr[verify.Unrecorded])
	}
	if fr[verify.Verified] < 0.10 {
		t.Errorf("verified fraction %.3f too small", fr[verify.Verified])
	}
	for st := verify.Verified; st <= verify.Unverified; st++ {
		if st == verify.Skip {
			continue // skip is rare (0.01% in the paper); may be 0 in small runs
		}
		if agg.Checks[st] == 0 {
			t.Errorf("status %v never produced", st)
		}
	}
}

func TestEndToEndFigures(t *testing.T) {
	sys := buildSmall(t)
	routes := sys.CollectRoutes(6, 1)
	agg := sys.VerifyRoutes(routes)

	f2 := agg.Figure2()
	if f2.ASes == 0 {
		t.Fatal("figure 2 empty")
	}
	// Most ASes have a single consistent status (paper: 74.4%).
	consistency := float64(f2.SingleStatusTotal) / float64(f2.ASes)
	if consistency < 0.4 {
		t.Errorf("per-AS consistency = %.2f, want majority", consistency)
	}

	f3 := agg.Figure3()
	if f3.Pairs == 0 {
		t.Fatal("figure 3 empty")
	}
	// Pairs are overwhelmingly single-status (paper: ~92%).
	pairCons := float64(f3.ImportSingleStatus) / float64(f3.Pairs)
	if pairCons < 0.7 {
		t.Errorf("per-pair import consistency = %.2f, want > 0.7", pairCons)
	}
	// Most unverified pairs fail on undeclared peerings (paper: 98.98%).
	if f3.PairsWithUnverified > 0 {
		peerFrac := float64(f3.UnverifiedPeeringOnly) / float64(f3.PairsWithUnverified)
		if peerFrac < 0.8 {
			t.Errorf("undeclared-peering share = %.2f, want > 0.8", peerFrac)
		}
	}

	f4 := agg.Figure4()
	if f4.Routes == 0 {
		t.Fatal("figure 4 empty")
	}
	// Most routes mix statuses (paper: only 6.6% single status).
	mixed := float64(f4.TwoStatuses+f4.ThreePlus) / float64(f4.Routes)
	if mixed < 0.5 {
		t.Errorf("mixed-status route share = %.2f, want majority", mixed)
	}

	f5 := agg.Figure5()
	if f5.ByCause[report.CauseNoAutNum] == 0 || f5.ByCause[report.CauseNoRules] == 0 {
		t.Errorf("figure 5 causes missing: %v", f5.ByCause)
	}

	f6 := agg.Figure6()
	if f6.ASesWithSpecial == 0 {
		t.Fatal("figure 6: no special-cased ASes")
	}
	// Uphill must dominate the special cases (paper: 28.1% of ASes vs
	// 1.2% export-self, 0.4% import-customer).
	if f6.ByCause[report.CauseUphill] <= f6.ByCause[report.CauseExportSelf] {
		t.Errorf("uphill (%d) should dominate export-self (%d)",
			f6.ByCause[report.CauseUphill], f6.ByCause[report.CauseExportSelf])
	}
	if f6.ByCause[report.CauseExportSelf] == 0 {
		t.Error("export-self never fired")
	}
	if f6.ByCause[report.CauseImportCustomer] == 0 {
		t.Error("import-customer never fired")
	}
	if f6.ByCause[report.CauseMissingRoutes] == 0 {
		t.Error("missing-routes never fired")
	}
}

func TestSection4ShapesOnSynthetic(t *testing.T) {
	sys := buildSmall(t)
	s4 := stats.ComputeSection4(sys.IR)
	if s4.AutNums == 0 {
		t.Fatal("no aut-nums")
	}
	noRules := float64(s4.AutNumsNoRules) / float64(s4.AutNums)
	if noRules < 0.2 || noRules > 0.6 {
		t.Errorf("no-rules fraction = %.2f, want ~0.35", noRules)
	}
	// Peerings are overwhelmingly simple (paper: 98.4%).
	simple := float64(s4.SimplePeerings) / float64(s4.Peerings)
	if simple < 0.9 {
		t.Errorf("simple peering fraction = %.2f, want > 0.9", simple)
	}
	// Most rule-writing ASes are BGPq4-compatible (paper: 94.5%).
	compat := float64(s4.ASesBGPq4Only) / float64(s4.ASesWithRules)
	if compat < 0.8 {
		t.Errorf("BGPq4-compatible fraction = %.2f, want > 0.8", compat)
	}

	ro := stats.ComputeRouteObjectStats(sys.IR)
	if ro.Objects <= ro.UniquePrefixOrigin || ro.UniquePrefixOrigin < ro.UniquePrefixes {
		t.Errorf("route object stats inconsistent: %+v", ro)
	}
	if ro.MultiOriginPrefixes == 0 || ro.MultiSourcePrefixes == 0 {
		t.Errorf("multiplicity not generated: %+v", ro)
	}

	as := stats.ComputeAsSetStats(sys.DB)
	if as.Empty == 0 || as.SingleMember == 0 || as.InLoop == 0 || as.Depth5Plus == 0 {
		t.Errorf("as-set pathologies missing: %+v", as)
	}
	if as.ContainsANY == 0 {
		t.Errorf("AS-ANY-member anomaly missing: %+v", as)
	}

	errs := stats.ErrorCensus(sys.IR)
	if errs["syntax"] == 0 || errs["invalid-as-set-name"] == 0 || errs["invalid-route-set-name"] == 0 {
		t.Errorf("error census missing classes: %v", errs)
	}
}

func TestTable1AndTable2OnSynthetic(t *testing.T) {
	sys := buildSmall(t)
	rows := stats.Table1(sys.IR, sys.DumpSizes, []string{"APNIC", "AFRINIC", "ARIN", "LACNIC", "RIPE", "IDNIC", "JPIRR", "RADB", "NTTCOM", "LEVEL3", "TC", "REACH", "ALTDB"})
	if len(rows) == 0 {
		t.Fatal("no table 1 rows")
	}
	total := stats.Table1Total(rows)
	if total.AutNums == 0 || total.Routes == 0 || total.Imports == 0 {
		t.Errorf("table 1 total = %+v", total)
	}
	// LACNIC publishes no rules.
	for _, r := range rows {
		if r.IRR == "LACNIC" && (r.Imports != 0 || r.Exports != 0) {
			t.Errorf("LACNIC rules = %d/%d, want 0/0", r.Imports, r.Exports)
		}
	}

	t2 := stats.ComputeTable2(sys.IR)
	if t2.AutNum.Defined == 0 || t2.AutNum.RefOverall == 0 {
		t.Errorf("table 2 aut-num = %+v", t2.AutNum)
	}
	if t2.AsSet.RefFilter == 0 {
		t.Errorf("table 2 as-set = %+v", t2.AsSet)
	}
	// References never exceed the universe of mentions.
	if t2.AutNum.RefPeering > t2.AutNum.RefOverall || t2.AutNum.RefFilter > t2.AutNum.RefOverall {
		t.Errorf("table 2 consistency: %+v", t2.AutNum)
	}
}

func TestVerifyOne(t *testing.T) {
	x := ParseText(`
aut-num: AS100
import: from AS200 accept ANY

aut-num: AS200
export: to AS100 announce ANY
`, "T")
	_, v := BuildFromIR(x, newEmptyRels(), verify.Config{})
	rep, err := VerifyOne(v, "192.0.2.0/24", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) != 2 {
		t.Fatalf("checks = %v", rep.Checks)
	}
	for _, c := range rep.Checks {
		if c.Status != verify.Verified {
			t.Errorf("check = %v", c)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := BuildSynthetic(Options{Seed: 7, ASes: 150})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSynthetic(Options{Seed: 7, ASes: 150})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"RIPE", "RADB", "APNIC"} {
		if a.Universe.DumpText(name) != b.Universe.DumpText(name) {
			t.Fatalf("dump %s not deterministic", name)
		}
	}
	if !strings.Contains(a.Universe.DumpText("RADB"), "AS-ANY") {
		t.Error("AS-ANY anomaly missing from RADB dump")
	}
}

func TestRuleCCDFShape(t *testing.T) {
	sys := buildSmall(t)
	all, bq := stats.RuleCCDF(sys.IR)
	if len(all) == 0 || len(bq) == 0 {
		t.Fatal("empty CCDFs")
	}
	// Fraction with zero rules: first point at X=0 has Frac 1; check
	// the >=1 point against the paper's ~65%.
	atLeast1 := stats.FracWithAtLeast(all, 1)
	if atLeast1 < 0.4 || atLeast1 > 0.9 {
		t.Errorf("frac with >=1 rule = %.2f", atLeast1)
	}
	// CCDF is non-increasing.
	for i := 1; i < len(all); i++ {
		if all[i].Frac > all[i-1].Frac {
			t.Fatalf("CCDF increases at %d", i)
		}
	}
	// BGPq4-compatible CCDF lies at or below the all-rules CCDF.
	if stats.FracWithAtLeast(bq, 1) > atLeast1+1e-9 {
		t.Error("BGPq4 CCDF above all-rules CCDF")
	}
}

// newEmptyRels builds an empty relationship database for tests.
func newEmptyRels() *asrel.Database { return asrel.New() }
