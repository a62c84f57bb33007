package report_test

import (
	"slices"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/verify"
)

// TestSummaryMemoKeysLength: a list and a shorter list cut from the same
// array, only the long one holding the array's last reason, are counted
// and indexed each under its own kinds, whether the check carries them
// in Kinds or leaves them to be read off its reasons.
func TestSummaryMemoKeysLength(t *testing.T) {
	long := make([]verify.Reason, 64)
	long[len(long)-1].Kind = verify.SpecUphill
	short := long[:len(long)-1]
	rep := verify.RouteReport{Route: bgpsim.Route{Prefix: prefix.MustParse("10.0.0.0/8"), Path: []ir.ASN{1, 2}}}
	for _, c := range []verify.Check{
		{From: 2, To: 1, Dir: ir.DirImport, Status: verify.Unverified, Reasons: short},
		{From: 2, To: 1, Dir: ir.DirImport, Status: verify.Safelisted, Reasons: long},
	} {
		rep.Checks = append(rep.Checks, c)
		c.Kinds = verify.KindsOf(c.Reasons)
		rep.Checks = append(rep.Checks, c)
	}
	// Checks 0 and 1 hold the short list, 2 and 3 the long one; the
	// second of each pair carries its Kinds.
	all, uphill := []uint32{0, 1, 2, 3}, []uint32{2, 3}

	a := report.NewAggregator()
	a.Add(rep)
	if got := a.ReasonChecks; got[verify.MatchRemoteAsNum] != 4 || got[verify.SpecUphill] != 2 {
		t.Errorf("reason checks = %v, want 4 MatchRemoteAsNum and 2 SpecUphill", got)
	}
	if st := a.PerAS()[0]; st.SpecialCauses != report.CauseSet(0).With(report.CauseUphill) {
		t.Errorf("AS1 special causes = %b, want uphill only", st.SpecialCauses)
	}

	snap := reportstore.BuildSnapshot([]verify.RouteReport{rep})
	if got := snap.ByReason(verify.MatchRemoteAsNum).Checks; !slices.Equal(got, all) {
		t.Errorf("MatchRemoteAsNum lists checks %v, want %v", got, all)
	}
	if got := snap.ByReason(verify.SpecUphill).Checks; !slices.Equal(got, uphill) {
		t.Errorf("SpecUphill lists checks %v, want %v", got, uphill)
	}
}
