package verify

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
)

// Additional evaluation-level coverage beyond the scenario tests in
// verify_test.go: set dereference chains, composite filters, afi
// narrowing, and concurrency equivalence.

func TestFilterSetDereferenceChain(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept FLTR-OUTER

filter-set: FLTR-OUTER
filter: FLTR-INNER

filter-set: FLTR-INNER
filter: { 192.0.2.0/24^+ }
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/25", 1, 2))
	imp := checkFor(t, rep, 2, 1, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("import = %v", imp)
	}
	rep2 := v.VerifyRoute(route("198.51.100.0/24", 1, 2))
	imp2 := checkFor(t, rep2, 2, 1, ir.DirImport)
	if imp2.Status != Unverified {
		t.Errorf("import2 = %v", imp2)
	}
}

func TestFilterSetCycleTerminates(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept FLTR-A

filter-set: FLTR-A
filter: FLTR-B

filter-set: FLTR-B
filter: FLTR-A
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 2))
	imp := checkFor(t, rep, 2, 1, ir.DirImport)
	if imp.Status != Unverified {
		t.Errorf("cyclic filter-set should fail closed: %v", imp)
	}
}

func TestPeeringSetDereference(t *testing.T) {
	text := `
aut-num: AS1
import: from PRNG-PEERS accept ANY

peering-set: PRNG-PEERS
peering: AS2
peering: AS3
`
	v := fixture(t, text, nil, Config{})
	for _, peer := range []ir.ASN{2, 3} {
		rep := v.VerifyRoute(route("192.0.2.0/24", 1, peer))
		imp := checkFor(t, rep, peer, 1, ir.DirImport)
		if imp.Status != Verified {
			t.Errorf("peer %d import = %v", peer, imp)
		}
	}
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 4))
	imp := checkFor(t, rep, 4, 1, ir.DirImport)
	if imp.Status != Unverified {
		t.Errorf("non-member import = %v", imp)
	}
}

func TestUnrecordedPeeringSet(t *testing.T) {
	text := `
aut-num: AS1
import: from PRNG-GONE accept ANY
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 2))
	imp := checkFor(t, rep, 2, 1, ir.DirImport)
	if imp.Status != Unrecorded || imp.Reasons[0].Kind != UnrecordedPeeringSet {
		t.Errorf("import = %v", imp)
	}
}

func TestPeeringAsSetExpression(t *testing.T) {
	text := `
aut-num: AS1
import: from AS-NEIGHBORS EXCEPT AS3 accept ANY

as-set: AS-NEIGHBORS
members: AS2, AS3
`
	v := fixture(t, text, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 2))
	if checkFor(t, rep, 2, 1, ir.DirImport).Status != Verified {
		t.Error("AS2 should match AS-NEIGHBORS EXCEPT AS3")
	}
	rep3 := v.VerifyRoute(route("192.0.2.0/24", 1, 3))
	if checkFor(t, rep3, 3, 1, ir.DirImport).Status != Unverified {
		t.Error("AS3 is excluded by EXCEPT")
	}
}

func TestCompositeFilterAndNot(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept ANY AND NOT {0.0.0.0/0}
`
	v := fixture(t, text, nil, Config{})
	if checkFor(t, v.VerifyRoute(route("192.0.2.0/24", 1, 2)), 2, 1, ir.DirImport).Status != Verified {
		t.Error("normal route should pass")
	}
	if checkFor(t, v.VerifyRoute(route("0.0.0.0/0", 1, 2)), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("default route should be rejected")
	}
}

func TestCompositeFilterOr(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept {192.0.2.0/24} OR {198.51.100.0/24}
`
	v := fixture(t, text, nil, Config{})
	for _, pfx := range []string{"192.0.2.0/24", "198.51.100.0/24"} {
		if checkFor(t, v.VerifyRoute(route(pfx, 1, 2)), 2, 1, ir.DirImport).Status != Verified {
			t.Errorf("%s should pass the OR", pfx)
		}
	}
	if checkFor(t, v.VerifyRoute(route("203.0.113.0/24", 1, 2)), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("other prefix should fail")
	}
}

func TestNotUnrecordedStaysUnrecorded(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept NOT AS-GONE
`
	v := fixture(t, text, nil, Config{})
	imp := checkFor(t, v.VerifyRoute(route("192.0.2.0/24", 1, 2)), 2, 1, ir.DirImport)
	if imp.Status != Unrecorded {
		t.Errorf("NOT over unrecorded set = %v", imp)
	}
}

func TestRouteSetFilterWithOp(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept RS-NETS^+

route-set: RS-NETS
members: 10.0.0.0/8
`
	v := fixture(t, text, nil, Config{})
	if checkFor(t, v.VerifyRoute(route("10.1.0.0/16", 1, 2)), 2, 1, ir.DirImport).Status != Verified {
		t.Error("more-specific should match RS-NETS^+")
	}
	if checkFor(t, v.VerifyRoute(route("11.0.0.0/8", 1, 2)), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("outside prefix should fail")
	}
}

func TestIPv6Verification(t *testing.T) {
	text := `
aut-num: AS1
mp-import: afi ipv6.unicast from AS2 accept AS2

route6: 2001:db8::/32
origin: AS2
`
	v := fixture(t, text, nil, Config{})
	if checkFor(t, v.VerifyRoute(route("2001:db8::/32", 1, 2)), 2, 1, ir.DirImport).Status != Verified {
		t.Error("IPv6 route should verify against mp-import")
	}
	// The same aut-num has no IPv4 rules: v4 routes are unverified.
	if checkFor(t, v.VerifyRoute(route("192.0.2.0/24", 1, 2)), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("IPv4 route must not match an ipv6-only rule")
	}
}

func TestMultipleRulesBestStatusWins(t *testing.T) {
	// One rule unrecorded, another strictly matching: Verified wins.
	text := `
aut-num: AS1
import: from AS2 accept AS-GONE
import: from AS2 accept ANY
`
	v := fixture(t, text, nil, Config{})
	imp := checkFor(t, v.VerifyRoute(route("192.0.2.0/24", 1, 2)), 2, 1, ir.DirImport)
	if imp.Status != Verified {
		t.Errorf("best-rule ladder broken: %v", imp)
	}
}

// TestReasonsSortedOnce: rules that fail for the same reason report it
// once, and a check's reasons come sorted, through either entry point.
func TestReasonsSortedOnce(t *testing.T) {
	text := `
aut-num: AS1
import: from AS4 accept ANY
import: from AS3 accept ANY
import: from AS3 accept ANY
`
	v := fixture(t, text, nil, Config{})
	r := route("192.0.2.0/24", 1, 2)
	want := []Reason{{Kind: MatchRemoteAsNum, ASN: 3}, {Kind: MatchRemoteAsNum, ASN: 4}}
	for name, rep := range map[string]RouteReport{"VerifyRoute": v.VerifyRoute(r), "VerifyAll": v.VerifyAll([]bgpsim.Route{r, r}, 1)[1]} {
		imp := checkFor(t, rep, 2, 1, ir.DirImport)
		if imp.Status != Unverified || !slices.Equal(imp.Reasons, want) {
			t.Errorf("%s: import = %v, want unverified with %v", name, imp, want)
		}
	}
}

func TestUnrecordedBeatsRelaxed(t *testing.T) {
	// The ladder places Unrecorded before Relaxed: a rule referencing
	// a missing set plus a would-relax rule yields Unrecorded.
	text := `
aut-num: AS1
import: from AS2 accept AS-GONE
import: from AS2 accept AS2

route: 203.0.113.0/24
origin: AS2
`
	v := fixture(t, text, nil, Config{})
	// Prefix not registered, origin==AS2: second rule would relax via
	// missing-routes, but the first rule's unrecorded set wins.
	imp := checkFor(t, v.VerifyRoute(route("198.51.100.0/24", 1, 2)), 2, 1, ir.DirImport)
	if imp.Status != Unrecorded {
		t.Errorf("ladder order broken: %v", imp)
	}
}

func TestExceptPolicyEvaluation(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept {192.0.2.0/24} EXCEPT from AS2 accept {198.51.100.0/24}
`
	v := fixture(t, text, nil, Config{})
	// Routes matching either branch are accepted.
	for _, pfx := range []string{"192.0.2.0/24", "198.51.100.0/24"} {
		if checkFor(t, v.VerifyRoute(route(pfx, 1, 2)), 2, 1, ir.DirImport).Status != Verified {
			t.Errorf("%s should verify via EXCEPT policy", pfx)
		}
	}
	if checkFor(t, v.VerifyRoute(route("203.0.113.0/24", 1, 2)), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("unmatched prefix should fail")
	}
}

func TestOnlyProviderPoliciesRequiresAllProviders(t *testing.T) {
	// Rules naming a non-provider disqualify the OPP classification.
	text := `
aut-num: AS1
import: from AS10 accept ANY
import: from AS99 accept ANY
`
	rels := func(d *asrel.Database) {
		d.AddP2C(10, 1)
		d.AddP2C(1, 50)
		// AS99 unrelated.
	}
	v := fixture(t, text, rels, Config{})
	if v.d.onlyProviderPolicies[1] {
		t.Error("AS1 names a non-provider; not OPP")
	}
}

func TestOnlyProviderPoliciesNotForPeerImports(t *testing.T) {
	text := `
aut-num: AS1
import: from AS10 accept ANY
`
	rels := func(d *asrel.Database) {
		d.AddP2C(10, 1)
		d.AddP2P(1, 60) // peer
	}
	v := fixture(t, text, rels, Config{})
	if !v.d.onlyProviderPolicies[1] {
		t.Fatal("AS1 should be OPP")
	}
	// Peer import safelisted via OPP.
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 60, 61))
	imp := checkFor(t, rep, 60, 1, ir.DirImport)
	if imp.Status != Safelisted {
		t.Errorf("peer import = %v", imp)
	}
	// But an import from an unrelated AS is not safelisted.
	rep2 := v.VerifyRoute(route("192.0.2.0/24", 1, 70, 71))
	imp2 := checkFor(t, rep2, 70, 1, ir.DirImport)
	if imp2.Status != Unverified {
		t.Errorf("unrelated import = %v", imp2)
	}
}

func TestSelfLoopPathPair(t *testing.T) {
	// A pathological path where an AS appears twice non-consecutively
	// must still produce one check pair per adjacency.
	v := fixture(t, basicRPSL, nil, Config{})
	rep := v.VerifyRoute(route("192.0.2.0/24", 100, 200, 100, 200))
	if len(rep.Checks) != 6 {
		t.Errorf("checks = %d, want 6", len(rep.Checks))
	}
}

func TestReasonStringForms(t *testing.T) {
	cases := map[string]Reason{
		"MatchRemoteAsNum(58552)":  {Kind: MatchRemoteAsNum, ASN: 58552},
		`UnrecordedAsSet("AS-X")`:  {Kind: UnrecordedAsSet, Name: "AS-X"},
		"SpecUphill":               {Kind: SpecUphill},
		"UnrecordedZeroRouteAS(0)": {Kind: UnrecordedZeroRouteAS},
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reason.String() = %q, want %q", got, want)
		}
	}
}

func TestCommunityInterpretationMode(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept community(65535:666)
`
	// Default mode: skip, as in the paper.
	vSkip := fixture(t, text, nil, Config{})
	r := route("192.0.2.0/24", 1, 2)
	if checkFor(t, vSkip.VerifyRoute(r), 2, 1, ir.DirImport).Status != Skip {
		t.Error("default mode should skip community filters")
	}

	// Interpretation mode: the community decides.
	vInt := fixture(t, text, nil, Config{InterpretCommunities: true})
	tagged := r
	tagged.Communities = []bgpsim.Community{bgpsim.BlackholeCommunity}
	if checkFor(t, vInt.VerifyRoute(tagged), 2, 1, ir.DirImport).Status != Verified {
		t.Error("tagged route should verify in interpretation mode")
	}
	if checkFor(t, vInt.VerifyRoute(r), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("untagged route should fail in interpretation mode")
	}
	// A stripped community produces exactly the false mismatch the
	// paper worries about: the route WAS tagged at origin, the filter
	// SHOULD match, but the collector never saw the community.
	stripped := r // communities removed in flight
	if checkFor(t, vInt.VerifyRoute(stripped), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("stripped route demonstrates the false-negative risk")
	}
}

func TestCommunityContainsCall(t *testing.T) {
	text := `
aut-num: AS1
import: from AS2 accept community.contains(65535:666, 65535:0)
`
	v := fixture(t, text, nil, Config{InterpretCommunities: true})
	r := route("192.0.2.0/24", 1, 2)
	r.Communities = []bgpsim.Community{
		bgpsim.BlackholeCommunity,
		bgpsim.NewCommunity(65535, 0),
	}
	if checkFor(t, v.VerifyRoute(r), 2, 1, ir.DirImport).Status != Verified {
		t.Error("contains() with all communities present should match")
	}
	r.Communities = r.Communities[:1]
	if checkFor(t, v.VerifyRoute(r), 2, 1, ir.DirImport).Status != Unverified {
		t.Error("contains() with a missing community should fail")
	}
}

func TestCommunityFilterMatchesHelper(t *testing.T) {
	have := []bgpsim.Community{bgpsim.NewCommunity(65000, 1)}
	cases := map[string]bool{
		"(65000:1)":          true,
		".contains(65000:1)": true,
		"(65000:2)":          false,
		"()":                 false,
		"(banana)":           false,
		".delete(65000:1)":   false,
		"no-parens":          false,
		".==(65000:1)":       true,
		"(65000:1 65000:2)":  false,
	}
	for call, want := range cases {
		comms, ok := parseCommunityCall(call)
		if got := ok && communitiesContainAll(comms, have); got != want {
			t.Errorf("%q matches %v, want %v", call, got, want)
		}
	}
}

func TestStrictModeDisablesSpecialCases(t *testing.T) {
	// A type-1 route leak: customer 64510 re-exports provider B's
	// route to provider A. Default mode excuses the hop (uphill +
	// import-customer); strict mode flags both checks Bad.
	text := `
aut-num: AS64500
import: from AS64510 accept AS64510

aut-num: AS64510
export: to AS64500 announce AS64510

route: 203.0.113.0/24
origin: AS64510
`
	rels := func(d *asrel.Database) {
		d.AddP2C(64500, 64510)
		d.AddP2C(64501, 64520)
	}
	leak := route("198.51.100.0/24", 64500, 64510, 64501, 64520)

	vDefault := fixture(t, text, rels, Config{})
	exp := checkFor(t, vDefault.VerifyRoute(leak), 64510, 64500, ir.DirExport)
	imp := checkFor(t, vDefault.VerifyRoute(leak), 64510, 64500, ir.DirImport)
	if exp.Status != Safelisted || imp.Status != Relaxed {
		t.Fatalf("default mode: exp=%v imp=%v", exp, imp)
	}

	vStrict := fixture(t, text, rels, Config{Strict: true})
	expS := checkFor(t, vStrict.VerifyRoute(leak), 64510, 64500, ir.DirExport)
	impS := checkFor(t, vStrict.VerifyRoute(leak), 64510, 64500, ir.DirImport)
	if expS.Status != Unverified || impS.Status != Unverified {
		t.Fatalf("strict mode: exp=%v imp=%v", expS, impS)
	}
	// The legitimate announcement still verifies in strict mode.
	ok := checkFor(t, vStrict.VerifyRoute(route("203.0.113.0/24", 64500, 64510)), 64510, 64500, ir.DirExport)
	if ok.Status != Verified {
		t.Errorf("legitimate export in strict mode = %v", ok)
	}
}

func TestPeeringExpressionCombinations(t *testing.T) {
	text := `
aut-num: AS1
import: from AS-LEFT AND AS-RIGHT accept ANY
import: from (AS7 OR AS8) accept {192.0.2.0/24}
import: from AS-GONE OR AS9 accept {198.51.100.0/24}

as-set: AS-LEFT
members: AS2, AS3

as-set: AS-RIGHT
members: AS3, AS4
`
	v := fixture(t, text, nil, Config{})
	// AND: only AS3 is in both sets.
	if checkFor(t, v.VerifyRoute(route("203.0.113.0/24", 1, 3)), 3, 1, ir.DirImport).Status != Verified {
		t.Error("AS3 should match AS-LEFT AND AS-RIGHT")
	}
	if checkFor(t, v.VerifyRoute(route("203.0.113.0/24", 1, 2)), 2, 1, ir.DirImport).Status == Verified {
		t.Error("AS2 must not match the AND")
	}
	// Parenthesized OR.
	if checkFor(t, v.VerifyRoute(route("192.0.2.0/24", 1, 8)), 8, 1, ir.DirImport).Status != Verified {
		t.Error("AS8 should match (AS7 OR AS8)")
	}
	// OR with an unrecorded set still matches on the recorded side.
	if checkFor(t, v.VerifyRoute(route("198.51.100.0/24", 1, 9)), 9, 1, ir.DirImport).Status != Verified {
		t.Error("AS9 should match AS-GONE OR AS9")
	}
	// Neither side: the unrecorded as-set surfaces as Unrecorded.
	c := checkFor(t, v.VerifyRoute(route("198.51.100.0/24", 1, 10)), 10, 1, ir.DirImport)
	if c.Status != Unrecorded {
		t.Errorf("unmatched with unrecorded set = %v", c)
	}
}

func TestEvalRuleDefaultAFIFallback(t *testing.T) {
	// A rule whose expression carries a zero AFI falls back to the
	// rule's MP-ness (exercised via a hand-built rule).
	text := `
aut-num: AS1
import: from AS2 accept ANY
`
	v := fixture(t, text, nil, Config{})
	an, _ := v.DB.AutNum(1)
	an.Imports[0].Expr.AFI = ir.AFI{} // simulate an unset AFI
	rep := v.VerifyRoute(route("192.0.2.0/24", 1, 2))
	if checkFor(t, rep, 2, 1, ir.DirImport).Status != Verified {
		t.Error("zero-AFI rule should default to IPv4 unicast")
	}
}

// TestSweepSetsShardPlan: every sweep publishes its own partition sizes
// as the shard plan, the partition count and the peak-to-mean route
// imbalance of its buckets.
func TestSweepSetsShardPlan(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{Shards: 3})
	reg := telemetry.NewRegistry("sweep-plan")
	v.SetShardMetrics(shard.NewMetrics(reg))
	var routes []bgpsim.Route
	var origins []ir.ASN
	for i := 0; i < 40; i++ {
		o := ir.ASN(100 + i%7)
		routes = append(routes, route("192.0.2.0/24", 200, o))
		origins = append(origins, o)
	}
	v.VerifyAll(routes, 0)
	var exposition strings.Builder
	if err := reg.WritePrometheus(&exposition); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(exposition.String(), "\n") {
		if strings.HasPrefix(line, "rpslyzer_shard_count ") || strings.HasPrefix(line, "rpslyzer_shard_imbalance_millis ") {
			got.WriteString(line)
		}
	}
	want := fmt.Sprintf("rpslyzer_shard_count 3\nrpslyzer_shard_imbalance_millis %d\n",
		int64(shard.Imbalance(shard.Counts(origins, 3))*1000))
	if got.String() != want {
		t.Fatalf("after a sweep the registry exports\n%swant\n%s", got.String(), want)
	}
}
