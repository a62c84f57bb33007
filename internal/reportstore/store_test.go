package reportstore

import (
	"reflect"
	"slices"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/verify"
)

func mustPrefix(t *testing.T, s string) prefix.Prefix {
	t.Helper()
	p, err := prefix.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return p
}

func rep(t *testing.T, pfx string, path []ir.ASN, checks ...verify.Check) verify.RouteReport {
	t.Helper()
	return verify.RouteReport{
		Route:  bgpsim.Route{Prefix: mustPrefix(t, pfx), Path: path},
		Checks: checks,
	}
}

func chk(from, to ir.ASN, dir ir.Direction, st verify.Status, reasons ...verify.Reason) verify.Check {
	return verify.Check{From: from, To: to, Dir: dir, Status: st, Reasons: reasons}
}

// corpus builds a small fixed snapshot used by several tests:
//
//	10.0.0.0/24 via 30 20 10: export 20->30 verified (owner 20),
//	                          import 30<-20 unverified/MatchFilter (owner 30)
//	10.0.1.0/24 via 20 10:    import 20<-10 unrecorded/UnrecordedAutNum (owner 20)
//	10.0.2.0/24 via 40:       ignored single-as
func corpus(t *testing.T) []verify.RouteReport {
	t.Helper()
	r1 := rep(t, "10.0.0.0/24", []ir.ASN{30, 20, 10},
		chk(20, 30, ir.DirExport, verify.Verified),
		chk(20, 30, ir.DirImport, verify.Unverified,
			verify.Reason{Kind: verify.MatchFilter, ASN: 10, Name: "AS-EXAMPLE"}),
	)
	r2 := rep(t, "10.0.1.0/24", []ir.ASN{20, 10},
		chk(10, 20, ir.DirImport, verify.Unrecorded,
			verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 10}),
	)
	r3 := rep(t, "10.0.2.0/24", []ir.ASN{40})
	r3.Ignored = "single-as"
	return []verify.RouteReport{r1, r2, r3}
}

func TestBuilderArenas(t *testing.T) {
	snap := BuildSnapshot(corpus(t))

	if snap.NumRoutes() != 3 {
		t.Fatalf("routes = %d, want 3", snap.NumRoutes())
	}
	if snap.NumChecks() != 3 {
		t.Fatalf("checks = %d, want 3", snap.NumChecks())
	}

	// Route 0 owns checks [0,2); route 1 owns [2,3); route 2 none.
	r0, r1, r2 := snap.Route(0), snap.Route(1), snap.Route(2)
	if r0.CheckOff != 0 || r0.CheckLen != 2 {
		t.Errorf("route0 range = %d+%d", r0.CheckOff, r0.CheckLen)
	}
	if r1.CheckOff != 2 || r1.CheckLen != 1 {
		t.Errorf("route1 range = %d+%d", r1.CheckOff, r1.CheckLen)
	}
	if r2.Ignored != "single-as" || r2.CheckLen != 0 {
		t.Errorf("route2 = %+v", r2)
	}

	// Check attribution: export -> From, import -> To.
	if got := snap.Check(0).Owner(); got != 20 {
		t.Errorf("check0 owner = %v, want 20", got)
	}
	if got := snap.Check(1).Owner(); got != 30 {
		t.Errorf("check1 owner = %v, want 30", got)
	}
	if got := snap.Check(2).Owner(); got != 20 {
		t.Errorf("check2 owner = %v, want 20", got)
	}

	// Reasons are served as the reports hold them.
	want := []verify.Reason{{Kind: verify.MatchFilter, ASN: 10, Name: "AS-EXAMPLE"}}
	if got := snap.Check(1).Reasons; !reflect.DeepEqual(got, want) {
		t.Errorf("reasons = %+v, want %+v", got, want)
	}
	if got := snap.Check(0).Reasons; got != nil {
		t.Errorf("check0 reasons = %+v, want nil", got)
	}
}

// TestIgnoredRouteWithChecks freezes a report that carries
// both an ignore marker and checks — impossible from the verifier, but
// reachable through reportd -import reading an external JSONL file.
// The ignored route must get an empty check range rather than a
// dangling one aliasing the next route's checks.
func TestIgnoredRouteWithChecks(t *testing.T) {
	bad := rep(t, "10.0.0.0/24", []ir.ASN{20, 10},
		chk(10, 20, ir.DirImport, verify.Verified))
	bad.Ignored = "single-as"
	good := rep(t, "10.0.1.0/24", []ir.ASN{20, 10},
		chk(10, 20, ir.DirImport, verify.Unverified))
	snap := BuildSnapshot([]verify.RouteReport{bad, good})

	if snap.NumChecks() != 1 {
		t.Fatalf("checks = %d, want 1 (ignored route's checks dropped)", snap.NumChecks())
	}
	r0 := snap.Route(0)
	if r0.CheckOff != 0 || r0.CheckLen != 0 {
		t.Errorf("ignored route range = %d+%d, want 0+0", r0.CheckOff, r0.CheckLen)
	}
	r1 := snap.Route(1)
	if r1.CheckOff != 0 || r1.CheckLen != 1 {
		t.Errorf("good route range = %d+%d, want 0+1", r1.CheckOff, r1.CheckLen)
	}
	if st := snap.Check(r1.CheckOff).Status; st != verify.Unverified {
		t.Errorf("good route's check status = %v, want unverified", st)
	}
}

func TestBuilderIndexes(t *testing.T) {
	snap := BuildSnapshot(corpus(t))

	// ASNs: 10 and 20 originate routes; 20 and 30 own checks; 40
	// originates the ignored route.
	wantASNs := []ir.ASN{10, 20, 30, 40}
	if got := snap.ASNs(); !reflect.DeepEqual(got, wantASNs) {
		t.Fatalf("ASNs = %v, want %v", got, wantASNs)
	}

	if idx := snap.ByStatus(verify.Verified); !reflect.DeepEqual(idx.Checks, []uint32{0}) ||
		!reflect.DeepEqual(idx.ASes, []ir.ASN{20}) {
		t.Errorf("verified index = %+v", idx)
	}
	if idx := snap.ByStatus(verify.Unverified); !reflect.DeepEqual(idx.ASes, []ir.ASN{30}) {
		t.Errorf("unverified index = %+v", idx)
	}
	if idx := snap.ByReason(verify.UnrecordedAutNum); !reflect.DeepEqual(idx.Checks, []uint32{2}) ||
		!reflect.DeepEqual(idx.ASes, []ir.ASN{20}) {
		t.Errorf("UnrecordedAutNum index = %+v", idx)
	}
	if got := snap.ByCause(report.CauseNoAutNum); !reflect.DeepEqual(got, []ir.ASN{20}) {
		t.Errorf("no-autnum cause ASes = %v", got)
	}

	// Route origin indexing: AS10 originates routes 0 and 1.
	e, ok := snap.AS(10)
	if !ok || !reflect.DeepEqual(e.Routes, []uint32{0, 1}) {
		t.Errorf("AS10 routes = %+v ok=%v", e, ok)
	}
	// AS40 only originates the ignored route: no stats, no checks.
	e, ok = snap.AS(40)
	if !ok || e.Stats != nil || len(e.Checks) != 0 || !reflect.DeepEqual(e.Routes, []uint32{2}) {
		t.Errorf("AS40 entry = %+v ok=%v", e, ok)
	}
}

// TestSnapshotMatchesAggregator is the store-side equivalence check:
// the stats and summary the snapshot serves must be the Aggregator's.
func TestSnapshotMatchesAggregator(t *testing.T) {
	reports := corpus(t)
	snap := BuildSnapshot(reports)

	want := report.NewAggregator()
	for _, r := range reports {
		want.Add(r)
	}

	sum := snap.Summary()
	if sum.Routes != want.Routes || sum.Checks != want.Checks || sum.FirstHop != want.FirstHop ||
		sum.IgnoredASSet != want.IgnoredASSet || sum.IgnoredSingleAS != want.IgnoredSingleAS ||
		sum.ASes != want.NumASes() || sum.Pairs != want.NumPairs() {
		t.Fatalf("summary %+v departs from the aggregator's counts", sum)
	}
	for _, st := range want.PerAS() {
		e, ok := snap.AS(st.ASN)
		if !ok || e.Stats == nil {
			t.Fatalf("AS%d missing from snapshot", st.ASN)
		}
		if !reflect.DeepEqual(*e.Stats, *st) {
			t.Errorf("AS%d stats = %+v, want %+v", st.ASN, *e.Stats, *st)
		}
		// Check index cardinality must equal aggregate check count.
		if got, want := len(e.Checks), st.Imports.Total()+st.Exports.Total(); int64(got) != want {
			t.Errorf("AS%d indexed checks = %d, aggregate = %d", st.ASN, got, want)
		}
	}
}

func TestStoreSwap(t *testing.T) {
	s := New(nil)
	if s.Current() != nil {
		t.Fatal("Current before first Swap should be nil")
	}
	if got := s.Swap(nil); got != 0 {
		t.Fatalf("nil swap returned %d", got)
	}

	s1 := BuildSnapshot(corpus(t))
	if got := s.Swap(s1); got != 1 {
		t.Fatalf("first swap serial = %d", got)
	}
	if s.Current() != s1 || s1.Serial() != 1 {
		t.Fatalf("current = %p serial = %d", s.Current(), s1.Serial())
	}

	s2 := BuildSnapshot(nil)
	if got := s.Swap(s2); got != 2 {
		t.Fatalf("second swap serial = %d", got)
	}
	if s.Current() != s2 || s.Swaps() != 2 {
		t.Fatalf("current/swaps wrong after second swap")
	}
	// The old generation stays intact for in-flight readers.
	if s1.NumRoutes() != 3 || s1.Serial() != 1 {
		t.Error("previous snapshot mutated by swap")
	}
}

func TestEmptySnapshot(t *testing.T) {
	snap := BuildSnapshot(nil)
	if snap.NumRoutes() != 0 || snap.NumChecks() != 0 || len(snap.ASNs()) != 0 {
		t.Fatalf("empty snapshot not empty: %d routes %d checks", snap.NumRoutes(), snap.NumChecks())
	}
	if _, ok := snap.AS(1); ok {
		t.Error("AS lookup on empty snapshot returned ok")
	}
	if sum := snap.Summary(); sum != (Summary{}) {
		t.Errorf("empty snapshot summary = %+v, want zero", sum)
	}
}

// TestReasonListsHoldACheckOnce: a check with several reasons of one
// kind is listed under that kind once, so every reason list is strictly
// increasing and holds exactly the checks that carry its kind.
func TestReasonListsHoldACheckOnce(t *testing.T) {
	reports := storeFixture(t)
	repeats := 0
	for _, rep := range reports {
		for _, c := range rep.Checks {
			var kinds uint32
			for _, r := range c.Reasons {
				if kinds&(1<<r.Kind) != 0 {
					repeats++
				}
				kinds |= 1 << r.Kind
			}
		}
	}
	if repeats == 0 {
		t.Fatal("no check in the fixture carries two reasons of one kind")
	}
	snap := BuildSnapshot(reports)
	for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
		var want []uint32
		for ci := uint32(0); ci < uint32(snap.NumChecks()); ci++ {
			if slices.ContainsFunc(snap.Check(ci).Reasons, func(r verify.Reason) bool { return r.Kind == k }) {
				want = append(want, ci)
			}
		}
		got := snap.ByReason(k).Checks
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("ByReason(%v).Checks[%d:%d] = %v: not strictly increasing", k, i-1, i+1, got[i-1:i+1])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("ByReason(%v).Checks: %d entries, want the %d checks of that kind", k, len(got), len(want))
		}
	}
}
