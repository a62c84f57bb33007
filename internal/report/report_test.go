package report

import (
	"reflect"
	"slices"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/verify"
)

// mkReport builds a route report with the given checks.
func mkReport(checks ...verify.Check) verify.RouteReport {
	return verify.RouteReport{Checks: checks}
}

func chk(from, to ir.ASN, dir ir.Direction, st verify.Status, reasons ...verify.Reason) verify.Check {
	return verify.Check{From: from, To: to, Dir: dir, Status: st, Reasons: reasons}
}

func TestAggregatorBasicCounts(t *testing.T) {
	a := NewAggregator()
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Unverified, verify.Reason{Kind: verify.MatchRemoteAsNum, ASN: 9}),
	))
	a.Add(verify.RouteReport{Ignored: "as-set"})
	a.Add(verify.RouteReport{Ignored: "single-as"})

	if a.Routes != 1 || a.IgnoredASSet != 1 || a.IgnoredSingleAS != 1 {
		t.Errorf("routes=%d asset=%d single=%d", a.Routes, a.IgnoredASSet, a.IgnoredSingleAS)
	}
	if a.Checks[verify.Verified] != 1 || a.Checks[verify.Unverified] != 1 {
		t.Errorf("checks = %v", a.Checks)
	}
}

func TestAggregatorAttributesChecksToRuleOwner(t *testing.T) {
	a := NewAggregator()
	// Export check belongs to From (AS2); import check to To (AS1).
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Unrecorded, verify.Reason{Kind: verify.UnrecordedAutNum}),
	))
	per := a.PerAS()
	if len(per) != 2 {
		t.Fatalf("perAS = %d", len(per))
	}
	as1, as2 := per[0], per[1]
	if as1.ASN != 1 || as2.ASN != 2 {
		t.Fatalf("order = %v %v", as1.ASN, as2.ASN)
	}
	if as2.Exports[verify.Verified] != 1 || as2.Imports.Total() != 0 {
		t.Errorf("AS2 stats = %+v", as2)
	}
	if as1.Imports[verify.Unrecorded] != 1 {
		t.Errorf("AS1 stats = %+v", as1)
	}
	if !as1.UnrecCauses.Has(CauseNoAutNum) {
		t.Error("unrecorded cause not recorded")
	}
}

func TestFigure2SingleStatus(t *testing.T) {
	a := NewAggregator()
	// AS10: all verified (owner of both checks).
	a.Add(mkReport(
		chk(10, 20, ir.DirExport, verify.Verified),
		chk(30, 10, ir.DirImport, verify.Verified),
	))
	// AS20: one verified import, one unverified import -> mixed.
	a.Add(mkReport(
		chk(11, 20, ir.DirImport, verify.Verified),
		chk(12, 20, ir.DirImport, verify.Unverified),
	))
	f2 := a.Figure2()
	// ASes seen: 10 (verified only), 20 (mixed), 30... AS30 owns
	// nothing (the import check 30->10 belongs to AS10).
	if f2.ASes != 2 {
		t.Fatalf("ASes = %d", f2.ASes)
	}
	if f2.SingleStatus[verify.Verified] != 1 || f2.SingleStatusTotal != 1 {
		t.Errorf("single status = %v", f2.SingleStatus)
	}
	if f2.WithStatus[verify.Unverified] != 1 {
		t.Errorf("with status = %v", f2.WithStatus)
	}
}

func TestFigure3PairConsistency(t *testing.T) {
	a := NewAggregator()
	// Pair (2->1): import verified twice -> single status.
	a.Add(mkReport(chk(2, 1, ir.DirImport, verify.Verified)))
	a.Add(mkReport(chk(2, 1, ir.DirImport, verify.Verified)))
	// Pair (3->1): unverified via peering mismatch only.
	a.Add(mkReport(chk(3, 1, ir.DirImport, verify.Unverified,
		verify.Reason{Kind: verify.MatchRemoteAsNum, ASN: 7})))
	// Pair (4->1): unverified with a filter mismatch.
	a.Add(mkReport(chk(4, 1, ir.DirImport, verify.Unverified,
		verify.Reason{Kind: verify.MatchFilterAsNum, ASN: 4})))
	f3 := a.Figure3()
	if f3.Pairs != 3 {
		t.Fatalf("pairs = %d", f3.Pairs)
	}
	if f3.ImportSingleStatus != 3 {
		t.Errorf("import single = %d", f3.ImportSingleStatus)
	}
	if f3.PairsWithUnverified != 2 {
		t.Errorf("unverified pairs = %d", f3.PairsWithUnverified)
	}
	if f3.UnverifiedPeeringOnly != 1 {
		t.Errorf("peering-only = %d", f3.UnverifiedPeeringOnly)
	}
}

func TestFigure4RouteMixes(t *testing.T) {
	a := NewAggregator()
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Verified),
	))
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Unrecorded),
	))
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Unrecorded),
		chk(3, 2, ir.DirExport, verify.Unverified),
	))
	f4 := a.Figure4()
	if f4.Routes != 3 {
		t.Fatalf("routes = %d", f4.Routes)
	}
	if f4.SingleStatusTotal != 1 || f4.SingleStatus[verify.Verified] != 1 {
		t.Errorf("single = %v", f4.SingleStatus)
	}
	if f4.TwoStatuses != 1 || f4.ThreePlus != 1 {
		t.Errorf("two=%d three+=%d", f4.TwoStatuses, f4.ThreePlus)
	}
}

func TestFigure5UnrecordedBreakdown(t *testing.T) {
	a := NewAggregator()
	a.Add(mkReport(chk(2, 1, ir.DirImport, verify.Unrecorded,
		verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 1})))
	a.Add(mkReport(chk(3, 4, ir.DirImport, verify.Unrecorded,
		verify.Reason{Kind: verify.UnrecordedAsSet, Name: "AS-X"})))
	a.Add(mkReport(chk(3, 5, ir.DirImport, verify.Verified)))
	f5 := a.Figure5()
	if f5.ASesWithUnrecorded != 2 {
		t.Fatalf("unrecorded ASes = %d", f5.ASesWithUnrecorded)
	}
	if f5.ByCause[CauseNoAutNum] != 1 || f5.ByCause[CauseMissingSet] != 1 {
		t.Errorf("by cause = %v", f5.ByCause)
	}
}

func TestFigure6SpecialBreakdown(t *testing.T) {
	a := NewAggregator()
	a.Add(mkReport(chk(2, 1, ir.DirExport, verify.Relaxed,
		verify.Reason{Kind: verify.SpecExportSelf})))
	a.Add(mkReport(chk(3, 4, ir.DirImport, verify.Safelisted,
		verify.Reason{Kind: verify.SpecUphill})))
	a.Add(mkReport(chk(5, 6, ir.DirImport, verify.Unverified)))
	f6 := a.Figure6()
	if f6.ASesWithSpecial != 2 {
		t.Fatalf("special ASes = %d", f6.ASesWithSpecial)
	}
	if f6.ByCause[CauseExportSelf] != 1 || f6.ByCause[CauseUphill] != 1 {
		t.Errorf("by cause = %v", f6.ByCause)
	}
	if f6.ASesWithUnverified != 1 {
		t.Errorf("unverified ASes = %d", f6.ASesWithUnverified)
	}
}

// TestCausesFollowStatus: a check's reasons give its owner Figure 5
// causes only when it is unrecorded and Figure 6 causes only when it is
// relaxed or safelisted, whatever else its list holds.
func TestCausesFollowStatus(t *testing.T) {
	mixed := []verify.Reason{
		{Kind: verify.UnrecordedAsSet, Name: "AS-X"},
		{Kind: verify.SpecImportCustomer},
		{Kind: verify.SpecUphill},
	}
	a := NewAggregator()
	a.Add(mkReport(
		chk(2, 1, ir.DirExport, verify.Relaxed, mixed...),
		chk(2, 1, ir.DirImport, verify.Unrecorded, mixed...),
		chk(1, 3, ir.DirExport, verify.Unverified, mixed...),
	))
	per := a.PerAS()
	as1, as2 := per[0], per[1]
	if want := CauseSet(0).With(CauseMissingSet); as1.UnrecCauses != want || as1.SpecialCauses != 0 {
		t.Errorf("AS1 causes: unrecorded %b, special %b; want %b and none", as1.UnrecCauses, as1.SpecialCauses, want)
	}
	if want := CauseSet(0).With(CauseImportCustomer).With(CauseUphill); as2.SpecialCauses != want || as2.UnrecCauses != 0 {
		t.Errorf("AS2 causes: special %b, unrecorded %b; want %b and none", as2.SpecialCauses, as2.UnrecCauses, want)
	}
}

func TestFirstHopCounts(t *testing.T) {
	a := NewAggregator()
	a.Add(mkReport(
		chk(3, 2, ir.DirExport, verify.Safelisted), // first hop (origin side)
		chk(3, 2, ir.DirImport, verify.Safelisted),
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Verified),
	))
	if a.FirstHop[verify.Safelisted] != 2 || a.FirstHop.Total() != 2 {
		t.Errorf("first hop = %v", a.FirstHop)
	}
}

func TestStatusCountsHelpers(t *testing.T) {
	var s StatusCounts
	s.Add(verify.Verified)
	s.Add(verify.Verified)
	s.Add(verify.Unverified)
	if s.Total() != 3 {
		t.Errorf("total = %d", s.Total())
	}
	f := s.Fractions()
	if f[verify.Verified] < 0.66 || f[verify.Verified] > 0.67 {
		t.Errorf("fractions = %v", f)
	}
	var empty StatusCounts
	if empty.Fractions()[0] != 0 {
		t.Error("empty fractions should be zero")
	}
}

func TestCauseString(t *testing.T) {
	if CauseNoAutNum.String() != "no-aut-num" || CauseUphill.String() != "uphill" {
		t.Error("cause names wrong")
	}
	if Cause(200).String() != "invalid" {
		t.Error("invalid cause name")
	}
}

// TestAddAllocatesNothingForSeenASes: the aggregator's memory follows
// the ASes and pairs it has seen, not the routes, so adding a report
// over known ones allocates nothing.
func TestAddAllocatesNothingForSeenASes(t *testing.T) {
	a := NewAggregator()
	rep := mkReport(
		chk(3, 2, ir.DirExport, verify.Verified),
		chk(3, 2, ir.DirImport, verify.Unrecorded, verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 2}),
		chk(2, 1, ir.DirExport, verify.Unverified, verify.Reason{Kind: verify.MatchFilter}),
		chk(2, 1, ir.DirImport, verify.Relaxed, verify.Reason{Kind: verify.SpecImportCustomer}),
	)
	a.Add(rep)
	if n := testing.AllocsPerRun(100, func() { a.Add(rep) }); n != 0 {
		t.Errorf("Add of a seen report allocates %v times, want 0", n)
	}
	if a.Routes != 102 || a.Figure4().ThreePlus != 102 {
		t.Errorf("routes = %d, three-plus = %d, want 102 each", a.Routes, a.Figure4().ThreePlus)
	}

	// Nor does a report over the same pairs whose checks carry several
	// reasons each, with their Kinds or without.
	lists := [][]verify.Reason{
		{{Kind: verify.UnrecordedAutNum, ASN: 2}, {Kind: verify.UnrecordedAsSet, Name: "AS-X"}},
		{{Kind: verify.MatchFilter}, {Kind: verify.MatchFilterAsNum, ASN: 1}, {Kind: verify.MatchFilter, Name: "AS-Y"}},
	}
	bare := mkReport(
		chk(3, 2, ir.DirImport, verify.Unrecorded, lists[0]...),
		chk(2, 1, ir.DirExport, verify.Unverified, lists[1]...),
	)
	marked := mkReport(slices.Clone(bare.Checks)...)
	for i := range marked.Checks {
		marked.Checks[i].Kinds = verify.KindsOf(marked.Checks[i].Reasons)
	}
	for _, again := range []verify.RouteReport{bare, marked} {
		if n := testing.AllocsPerRun(100, func() { a.Add(again) }); n != 0 {
			t.Errorf("Add of seen reason lists (Kinds %b) allocates %v times, want 0", again.Checks[0].Kinds, n)
		}
	}
	if a.ReasonChecks[verify.MatchFilter] != 304 || a.ReasonChecks[verify.MatchFilterAsNum] != 202 || a.ReasonChecks[verify.UnrecordedAsSet] != 202 {
		t.Errorf("reason checks = %v, want 304 MatchFilter, 202 MatchFilterAsNum and 202 UnrecordedAsSet", a.ReasonChecks)
	}
	if p := a.perPair[PairKey{2, 1}]; p.UnverifiedFilter != 304 || p.UnverifiedPeering != 0 {
		t.Errorf("AS2->AS1 unverified by filter, by peering = %d, %d; want 304, 0", p.UnverifiedFilter, p.UnverifiedPeering)
	}
	if want := CauseSet(0).With(CauseNoAutNum).With(CauseMissingSet); a.perAS[2].UnrecCauses != want {
		t.Errorf("AS2 unrecorded causes = %b, want %b", a.perAS[2].UnrecCauses, want)
	}
}

// TestAggregatorAddRun: AddRun(rep, n) counts what n calls of Add(rep)
// count, for verified reports of every route mix, reason kinds with
// and without Kinds, and ignored reports, with checks or without.
func TestAggregatorAddRun(t *testing.T) {
	marked := chk(2, 1, ir.DirExport, verify.Unverified, verify.Reason{Kind: verify.MatchFilter}, verify.Reason{Kind: verify.MatchFilterAsNum, ASN: 1})
	marked.Kinds = verify.KindsOf(marked.Reasons)
	withChecks := mkReport(chk(3, 2, ir.DirExport, verify.Verified))
	withChecks.Ignored = "single-as"
	reports := []verify.RouteReport{
		mkReport(chk(2, 1, ir.DirExport, verify.Verified), chk(2, 1, ir.DirImport, verify.Verified)),
		mkReport(
			chk(3, 2, ir.DirExport, verify.Verified),
			chk(3, 2, ir.DirImport, verify.Unrecorded, verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 2}, verify.Reason{Kind: verify.UnrecordedAsSet, Name: "AS-X"}),
			marked,
			chk(2, 1, ir.DirImport, verify.Relaxed, verify.Reason{Kind: verify.SpecImportCustomer}),
		),
		mkReport(chk(4, 1, ir.DirExport, verify.Unverified, verify.Reason{Kind: verify.MatchRemoteAsNum, ASN: 9}),
			chk(4, 1, ir.DirImport, verify.Safelisted, verify.Reason{Kind: verify.SpecUphill})),
		{Ignored: "as-set"},
		withChecks,
	}
	for _, n := range []int{1, 2, 3, 7} {
		run, each := NewAggregator(), NewAggregator()
		for i := range reports {
			run.AddRun(&reports[i], n)
			for range n {
				each.Add(reports[i])
			}
		}
		if !reflect.DeepEqual(run, each) {
			t.Errorf("n=%d: AddRun counted %+v, Add %+v", n, run, each)
		}
		if run.Routes != int64(3*n) || run.IgnoredASSet != int64(n) || run.IgnoredSingleAS != int64(n) {
			t.Errorf("n=%d: %d routes, %d+%d ignored; want %d, %d and %d", n, run.Routes, run.IgnoredASSet, run.IgnoredSingleAS, 3*n, n, n)
		}
	}
}
