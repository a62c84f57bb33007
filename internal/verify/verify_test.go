package verify

import (
	"runtime"
	"strings"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/rpsl"
)

// fixture builds a verifier from RPSL text and a relationship setup
// callback.
func fixture(t *testing.T, rpslText string, rels func(*asrel.Database), cfg Config) *Verifier {
	t.Helper()
	b := parser.NewBuilder()
	b.AddDump(rpsl.NewReader(strings.NewReader(rpslText), "TEST"))
	db := irr.New(b.IR)
	rd := asrel.New()
	if rels != nil {
		rels(rd)
	}
	return New(db, rd, cfg)
}

func route(pfx string, path ...ir.ASN) bgpsim.Route {
	return bgpsim.Route{Prefix: prefix.MustParse(pfx), Path: path}
}

// checkFor finds the check with the given direction for pair from->to.
func checkFor(t *testing.T, rep RouteReport, from, to ir.ASN, dir ir.Direction) Check {
	t.Helper()
	for _, c := range rep.Checks {
		if c.From == from && c.To == to && c.Dir == dir {
			return c
		}
	}
	t.Fatalf("no %v check for %d->%d in %v", dir, from, to, rep.Checks)
	return Check{}
}

const basicRPSL = `
aut-num: AS100
import: from AS200 accept AS200
export: to AS200 announce ANY

aut-num: AS200
import: from AS100 accept ANY
export: to AS100 announce AS200

route: 192.0.2.0/24
origin: AS200
`

func TestStrictVerified(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200))
	if len(rep.Checks) != 2 {
		t.Fatalf("checks = %v", rep.Checks)
	}
	exp := checkFor(t, rep, 200, 100, ir.DirExport)
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if exp.Status != Verified {
		t.Errorf("export = %v", exp)
	}
	if imp.Status != Verified {
		t.Errorf("import = %v", imp)
	}
}

func TestUnrecordedAutNum(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 999, 200))
	exp := checkFor(t, rep, 200, 999, ir.DirExport)
	imp := checkFor(t, rep, 200, 999, ir.DirImport)
	// AS200's export rule names AS100, not AS999 -> unverified export.
	if exp.Status != Unverified {
		t.Errorf("export = %v", exp)
	}
	if len(exp.Reasons) == 0 || exp.Reasons[0].Kind != MatchRemoteAsNum {
		t.Errorf("export reasons = %v", exp.Reasons)
	}
	// AS999 has no aut-num -> unrecorded import.
	if imp.Status != Unrecorded || imp.Reasons[0].Kind != UnrecordedAutNum {
		t.Errorf("import = %v", imp)
	}
}

func TestUnrecordedNoRules(t *testing.T) {
	text := basicRPSL + `
aut-num: AS300
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 300, 200))
	imp := checkFor(t, rep, 200, 300, ir.DirImport)
	if imp.Status != Unrecorded {
		t.Errorf("import = %v", imp)
	}
	found := false
	for _, r := range imp.Reasons {
		if r.Kind == UnrecordedNoRules {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", imp.Reasons)
	}
}

func TestZeroRouteASFilter(t *testing.T) {
	text := `
aut-num: AS100
import: from AS200 accept AS777
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Unrecorded {
		t.Errorf("import = %v", imp)
	}
	if imp.Reasons[0].Kind != UnrecordedZeroRouteAS || imp.Reasons[0].ASN != 777 {
		t.Errorf("reasons = %v", imp.Reasons)
	}
}

func TestUnrecordedAsSetInFilter(t *testing.T) {
	text := `
aut-num: AS100
import: from AS200 accept AS-MISSING
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Unrecorded || imp.Reasons[0].Kind != UnrecordedAsSet {
		t.Errorf("import = %v", imp)
	}
}

func TestSkipCommunityFilter(t *testing.T) {
	text := `
aut-num: AS100
import: from AS200 accept community(65535:666)
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Skip || imp.Reasons[0].Kind != SkipCommunityFilter {
		t.Errorf("import = %v", imp)
	}
}

func TestExportSelfRelaxation(t *testing.T) {
	// AS56239-style: transit AS announces only itself to its provider,
	// but the route is originated by its customer (who registered a
	// route object).
	text := `
aut-num: AS56239
export: to AS133840 announce AS56239
import: from AS141893 accept AS141893

route: 103.162.114.0/23
origin: AS141893

route: 103.0.0.0/24
origin: AS56239
`
	rels := func(d *asrel.Database) {
		d.AddP2C(133840, 56239) // 133840 provider of 56239
		d.AddP2C(56239, 141893) // 141893 customer of 56239
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("103.162.114.0/23", 133840, 56239, 141893))
	exp := checkFor(t, rep, 56239, 133840, ir.DirExport)
	if exp.Status != Relaxed {
		t.Fatalf("export = %v", exp)
	}
	found := false
	for _, r := range exp.Reasons {
		if r.Kind == SpecExportSelf {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", exp.Reasons)
	}
}

func TestExportSelfNotAppliedWithoutConeRouteObject(t *testing.T) {
	// Appendix C: the filter does not match even under Export Self when
	// no cone member registered the prefix; uphill safelisting then
	// applies.
	text := `
aut-num: AS56239
export: to AS133840 announce AS56239

route: 103.0.0.0/24
origin: AS56239
`
	rels := func(d *asrel.Database) {
		d.AddP2C(133840, 56239)
		d.AddP2C(56239, 141893)
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("103.162.114.0/23", 133840, 56239, 141893))
	exp := checkFor(t, rep, 56239, 133840, ir.DirExport)
	if exp.Status != Safelisted {
		t.Fatalf("export = %v", exp)
	}
	found := false
	for _, r := range exp.Reasons {
		if r.Kind == SpecUphill {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", exp.Reasons)
	}
}

func TestImportCustomerRelaxation(t *testing.T) {
	// Transit AS names customer C in both peering and filter; the
	// route is originated by C's customer.
	text := `
aut-num: AS8323
import: from AS64500 accept AS64500

route: 198.51.100.0/24
origin: AS64500
`
	rels := func(d *asrel.Database) {
		d.AddP2C(8323, 64500)  // 64500 customer of 8323
		d.AddP2C(64500, 64510) // origin below
	}
	v := fixture(t, text, rels, Config{})
	// Prefix originated by AS64510, no route object for it.
	rep := v.VerifyRoute(route("203.0.113.0/24", 8323, 64500, 64510))
	imp := checkFor(t, rep, 64500, 8323, ir.DirImport)
	if imp.Status != Relaxed {
		t.Fatalf("import = %v", imp)
	}
	if imp.Reasons[0].Kind != SpecImportCustomer {
		t.Errorf("reasons = %v", imp.Reasons)
	}
}

func TestMissingRoutesRelaxation(t *testing.T) {
	// Filter names the origin AS but the route object is missing.
	text := `
aut-num: AS100
import: from AS200 accept AS200

route: 192.0.2.0/24
origin: AS200
`
	v := fixture(t, text, nil, Config{})
	// 198.51.100.0/24 has no route object but AS200 is the origin.
	rep := v.VerifyRoute(route("198.51.100.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Relaxed || imp.Reasons[0].Kind != SpecMissingRoutes {
		t.Errorf("import = %v", imp)
	}
}

func TestMissingRoutesViaAsSet(t *testing.T) {
	text := `
aut-num: AS100
import: from AS200 accept AS-CUST

as-set: AS-CUST
members: AS200, AS300

route: 192.0.2.0/24
origin: AS300
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("198.51.100.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Relaxed || imp.Reasons[0].Kind != SpecMissingRoutes {
		t.Errorf("import = %v", imp)
	}
}

func TestOnlyProviderPoliciesSafelist(t *testing.T) {
	// AS56239 defines rules only for its provider AS133840; imports
	// from its customer AS141893 are safelisted.
	text := `
aut-num: AS56239
import: from AS133840 accept ANY
export: to AS133840 announce AS56239
`
	rels := func(d *asrel.Database) {
		d.AddP2C(133840, 56239)
		d.AddP2C(56239, 141893)
	}
	v := fixture(t, text, rels, Config{})
	if !v.d.onlyProviderPolicies[56239] {
		t.Fatal("AS56239 should be only-provider-policies")
	}
	rep := v.VerifyRoute(route("203.0.113.0/24", 133840, 56239, 141893))
	imp := checkFor(t, rep, 141893, 56239, ir.DirImport)
	if imp.Status != Safelisted {
		t.Fatalf("import = %v", imp)
	}
	found := false
	for _, r := range imp.Reasons {
		if r.Kind == SpecOnlyProviderPolicies {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", imp.Reasons)
	}
}

func TestTier1PairSafelist(t *testing.T) {
	text := `
aut-num: AS3257
import: from AS12 accept AS12

route: 10.0.0.0/24
origin: AS12
`
	rels := func(d *asrel.Database) {
		d.SetTier1(3257)
		d.SetTier1(1299)
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("203.0.113.0/24", 3257, 1299, 64500))
	imp := checkFor(t, rep, 1299, 3257, ir.DirImport)
	if imp.Status != Safelisted {
		t.Fatalf("import = %v", imp)
	}
	hasT1, hasMismatch := false, false
	for _, r := range imp.Reasons {
		if r.Kind == SpecTier1Pair {
			hasT1 = true
		}
		if r.Kind == MatchRemoteAsNum && r.ASN == 12 {
			hasMismatch = true
		}
	}
	if !hasT1 || !hasMismatch {
		t.Errorf("reasons = %v", imp.Reasons)
	}
}

func TestUphillSafelist(t *testing.T) {
	text := `
aut-num: AS133840
export: to AS99999 announce AS133840
`
	rels := func(d *asrel.Database) {
		d.AddP2C(6939, 133840)
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("203.0.113.0/24", 6939, 133840, 64500))
	exp := checkFor(t, rep, 133840, 6939, ir.DirExport)
	if exp.Status != Safelisted {
		t.Fatalf("export = %v", exp)
	}
	found := false
	for _, r := range exp.Reasons {
		if r.Kind == SpecUphill {
			found = true
		}
	}
	if !found {
		t.Errorf("reasons = %v", exp.Reasons)
	}
}

func TestDownhillNotSafelisted(t *testing.T) {
	// The paper deliberately does not safelist downhill propagation.
	text := `
aut-num: AS100
export: to AS99999 announce AS100
`
	rels := func(d *asrel.Database) {
		d.AddP2C(100, 200) // 100 is provider of 200: export 100->200 is downhill
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("203.0.113.0/24", 200, 100, 300))
	exp := checkFor(t, rep, 100, 200, ir.DirExport)
	if exp.Status != Unverified {
		t.Errorf("export = %v", exp)
	}
}

func TestPeerASFilter(t *testing.T) {
	text := `
aut-num: AS8323
import: from AS8267 accept PeerAS

route: 192.0.2.0/24
origin: AS8267
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 8323, 8267))
	imp := checkFor(t, rep, 8267, 8323, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("import = %v", imp)
	}
	// A prefix the peer does not originate fails strictly but relaxes
	// via missing-routes because PeerAS == origin.
	rep2 := v.VerifyRoute(route("198.51.100.0/24", 8323, 8267))
	imp2 := checkFor(t, rep2, 8267, 8323, ir.DirImport)
	if imp2.Status != Relaxed {
		t.Errorf("import2 = %v", imp2)
	}
}

func TestPathRegexFilterVerification(t *testing.T) {
	text := `
aut-num: AS14595
import: from AS13911 action pref=200; accept <^AS13911 AS6327+$>
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("203.0.113.0/24", 14595, 13911, 6327))
	imp := checkFor(t, rep, 13911, 14595, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("import = %v", imp)
	}
	rep2 := v.VerifyRoute(route("203.0.113.0/24", 14595, 13911, 174))
	imp2 := checkFor(t, rep2, 13911, 14595, ir.DirImport)
	if imp2.Status != Unverified {
		t.Errorf("import2 = %v", imp2)
	}
}

func TestComplexRegexSkipMode(t *testing.T) {
	text := `
aut-num: AS100
import: from AS200 accept <^[^AS64512-AS65535]+$>
`
	// Default config interprets the ASN range.
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("203.0.113.0/24", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("default mode import = %v", imp)
	}
	// Paper-faithful mode skips it.
	v2 := fixture(t, text, nil, Config{SkipComplexRegex: true})
	rep2 := v2.VerifyRoute(route("203.0.113.0/24", 100, 200))
	imp2 := checkFor(t, rep2, 200, 100, ir.DirImport)
	if imp2.Status != Skip {
		t.Errorf("skip mode import = %v", imp2)
	}
}

func TestAFIMismatchRules(t *testing.T) {
	// An IPv4-only rule does not apply to an IPv6 route.
	text := `
aut-num: AS100
import: from AS200 accept ANY
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("2001:db8::/32", 100, 200))
	imp := checkFor(t, rep, 200, 100, ir.DirImport)
	if imp.Status != Unverified {
		t.Errorf("import = %v", imp)
	}
	// An mp-import with afi any covers IPv6.
	text2 := `
aut-num: AS100
mp-import: afi any.unicast from AS200 accept ANY
`
	v2 := fixture(t, text2, nil, Config{})
	rep2 := v2.VerifyRoute(route("2001:db8::/32", 100, 200))
	imp2 := checkFor(t, rep2, 200, 100, ir.DirImport)
	if imp2.Status != Verified {
		t.Errorf("mp import = %v", imp2)
	}
}

func TestRefinePolicyVerification(t *testing.T) {
	// The AS14595 example: ANY AND NOT default, refined by a regex for
	// IPv4.
	text := `
aut-num: AS14595
mp-import: afi any.unicast from AS13911 accept ANY AND NOT {0.0.0.0/0, ::0/0} REFINE afi ipv4.unicast from AS13911 accept <^AS13911 AS6327+$>
`
	v := fixture(t, text, nil, Config{})
	// IPv4 route matching the regex: verified.
	rep := v.VerifyRoute(route("203.0.113.0/24", 14595, 13911, 6327))
	imp := checkFor(t, rep, 13911, 14595, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("import = %v", imp)
	}
	// IPv4 route not matching the refine: unverified.
	rep2 := v.VerifyRoute(route("203.0.113.0/24", 14595, 13911, 174))
	imp2 := checkFor(t, rep2, 13911, 14595, ir.DirImport)
	if imp2.Status != Unverified {
		t.Errorf("import2 = %v", imp2)
	}
	// The default route is excluded by the first term.
	rep3 := v.VerifyRoute(route("0.0.0.0/0", 14595, 13911, 6327))
	imp3 := checkFor(t, rep3, 13911, 14595, ir.DirImport)
	if imp3.Status != Unverified {
		t.Errorf("import3 = %v", imp3)
	}
}

func TestPrependingRemoved(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200, 200, 200))
	if len(rep.Checks) != 2 {
		t.Fatalf("checks = %v (prepends should collapse)", rep.Checks)
	}
	if checkFor(t, rep, 200, 100, ir.DirExport).Status != Verified {
		t.Error("prepended route should still verify")
	}
}

func TestIgnoredRoutes(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	rep := v.VerifyRoute(bgpsim.Route{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{100, 200}, HasASSet: true})
	if rep.Ignored != "as-set" || len(rep.Checks) != 0 {
		t.Errorf("as-set route = %+v", rep)
	}
	rep2 := v.VerifyRoute(route("192.0.2.0/24", 200))
	if rep2.Ignored != "single-as" {
		t.Errorf("single-AS route = %+v", rep2)
	}
}

func TestVerifyAllOrderAndConcurrency(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	routes := make([]bgpsim.Route, 100)
	for i := range routes {
		routes[i] = route("192.0.2.0/24", 100, 200)
	}
	reps := v.VerifyAll(routes, 8)
	if len(reps) != 100 {
		t.Fatalf("reports = %d", len(reps))
	}
	for i, r := range reps {
		if len(r.Checks) != 2 || r.Checks[0].Status != Verified {
			t.Fatalf("report %d = %+v", i, r)
		}
	}
}

func TestVerifyStream(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	routes := make([]bgpsim.Route, 50)
	for i := range routes {
		routes[i] = route("192.0.2.0/24", 100, 200)
	}
	n := 0
	v.VerifyStream(routes, 4, func(RouteReport) { n++ })
	if n != 50 {
		t.Errorf("sink saw %d reports", n)
	}
}

func TestCheckString(t *testing.T) {
	c := Check{From: 141893, To: 56239, Dir: ir.DirExport, Status: Unverified,
		Reasons: []Reason{{Kind: MatchRemoteAsNum, ASN: 58552}, {Kind: MatchRemoteAsNum, ASN: 131755}}}
	want := "BadExport { from: 141893, to: 56239, items: [MatchRemoteAsNum(58552), MatchRemoteAsNum(131755)] }"
	if got := c.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	c2 := Check{From: 133840, To: 6939, Dir: ir.DirImport, Status: Verified}
	if got := c2.String(); got != "OkImport { from: 133840, to: 6939 }" {
		t.Errorf("String = %q", got)
	}
}

func TestStatusRoundTrip(t *testing.T) {
	for s := Verified; s <= Unverified; s++ {
		b, _ := s.MarshalText()
		var s2 Status
		if err := s2.UnmarshalText(b); err != nil || s2 != s {
			t.Errorf("round trip %v failed", s)
		}
	}
	var s Status
	if err := s.UnmarshalText([]byte("nope")); err == nil {
		t.Error("bad status accepted")
	}
}

func TestAppendixCExampleShape(t *testing.T) {
	// Reconstruction of the paper's Appendix C walk-through with the
	// rules quoted there.
	text := `
aut-num: AS141893
export: to AS58552 announce AS141893
export: to AS131755 announce AS141893
import: from AS55685 accept ANY
import: from AS133840 accept ANY

aut-num: AS56239
export: to AS133840 announce AS56239
import: from AS55685 accept ANY

aut-num: AS133840
export: to AS55685 announce AS133840
import: from AS55685 accept ANY

aut-num: AS6939
import: from AS-ANY accept ANY
export: to AS-ANY announce ANY

aut-num: AS1299
export: to AS-ANY announce AS1299:AS-TWELVE99-CUSTOMER-V4 AS1299:AS-TWELVE99-PEER-V4
import: from AS12 accept ANY

aut-num: AS3257
import: from AS12 accept ANY

route: 103.162.114.0/23
origin: AS64999

route: 103.210.0.0/24
origin: AS56239
`
	// Note: in the paper's data, CAIDA's customer-cone dataset excluded
	// AS141893 from AS56239's cone even though the pairwise relation is
	// p2c (real-data inconsistency), so Export Self did not fire. Our
	// relationship database is self-consistent, so this fixture instead
	// registers the prefix to an off-cone AS to reproduce the same
	// status shape.
	rels := func(d *asrel.Database) {
		d.AddP2C(56239, 141893)
		d.AddP2C(133840, 56239)
		d.AddP2C(6939, 133840)
		d.AddP2P(6939, 1299)
		d.SetTier1(1299)
		d.SetTier1(3257)
		d.AddP2P(1299, 3257)
		d.AddP2C(56239, 137296)
	}
	v := fixture(t, text, rels, Config{})
	rep := v.VerifyRoute(route("103.162.114.0/23", 3257, 1299, 6939, 133840, 56239, 141893))

	// Export from AS141893 to AS56239: BadExport with the two remote
	// mismatches.
	exp := checkFor(t, rep, 141893, 56239, ir.DirExport)
	if exp.Status != Unverified {
		t.Errorf("141893 export = %v", exp)
	}
	// Import by AS56239: only-provider-policies safelist... AS56239
	// has an import from its provider only? It imports from AS55685
	// which is not its provider here, so OPP fails; uphill does not
	// apply to import of a customer route... the paper reports
	// MehImport(OnlyProviderPolicies). Our relationship setup lacks
	// AS55685; accept Safelisted or Unverified shape here but require
	// the export side checks below to match exactly.
	_ = checkFor(t, rep, 141893, 56239, ir.DirImport)

	// Export from AS56239 to AS133840: filter AS56239 does not cover
	// the prefix (route object belongs to AS141893) and the customer
	// cone member 137296 has no route object either -> not relaxed,
	// but uphill -> Meh.
	exp2 := checkFor(t, rep, 56239, 133840, ir.DirExport)
	if exp2.Status != Safelisted {
		t.Errorf("56239 export = %v", exp2)
	}
	// Import by AS6939 from AS133840 strictly matches AS-ANY/ANY.
	imp3 := checkFor(t, rep, 133840, 6939, ir.DirImport)
	if imp3.Status != Verified {
		t.Errorf("6939 import = %v", imp3)
	}
	// Export from AS1299: unrecorded as-sets.
	exp4 := checkFor(t, rep, 1299, 3257, ir.DirExport)
	if exp4.Status != Unrecorded {
		t.Errorf("1299 export = %v", exp4)
	}
	names := map[string]bool{}
	for _, r := range exp4.Reasons {
		if r.Kind == UnrecordedAsSet {
			names[r.Name] = true
		}
	}
	if !names["AS1299:AS-TWELVE99-CUSTOMER-V4"] || !names["AS1299:AS-TWELVE99-PEER-V4"] {
		t.Errorf("1299 reasons = %v", exp4.Reasons)
	}
	// Import by AS3257 from AS1299: Tier-1 pair safelist.
	imp5 := checkFor(t, rep, 1299, 3257, ir.DirImport)
	if imp5.Status != Safelisted {
		t.Errorf("3257 import = %v", imp5)
	}
}

// TestPatchRouteDoesNotPinHeap patches one route a thousand times,
// each patch re-evaluating one AS's checks and copying the rest.
// Single-route paths allocate exactly, so a patched report pins only
// the memory it uses and the live heap stays where it was before the
// first patch, whatever the patch count; carving patched reports out
// of bulk arena blocks would pin a block (160 KiB of checks alone)
// behind each.
func TestPatchRouteDoesNotPinHeap(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	r := route("198.51.100.0/24", 999, 100, 200, 300)
	dirty := map[ir.ASN]CheckMask{200: MaskBoth}
	rep := v.VerifyRoute(r)
	want := reportString(rep)

	liveAfter := func(patches int) uint64 {
		for i := 0; i < patches; i++ {
			rep = v.PatchRoute(r, rep, dirty)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := liveAfter(0)
	for _, patches := range []int{10, 990} {
		if live := liveAfter(patches); live > base+64<<10 {
			t.Errorf("live heap grew from %d to %d bytes after %d more patches", base, live, patches)
		}
	}
	if got := reportString(rep); got != want {
		t.Fatalf("patched report diverged:\n%s\nvs\n%s", got, want)
	}
}
