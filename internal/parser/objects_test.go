package parser

import (
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/rpsl"
)

const miniIRR = `
aut-num:        AS64500
as-name:        TRANSIT-A
import:         from AS64501 accept AS64501
import:         from AS64510 accept ANY
export:         to AS64501 announce ANY
export:         to AS64510 announce AS64500
mp-import:      afi ipv6.unicast from AS64501 accept AS64501
member-of:      AS64499:AS-CUSTOMERS
mnt-by:         MNT-A
source:         RIPE

as-set:         AS-EXAMPLE
members:        AS64500, AS64501
members:        AS-OTHER
mbrs-by-ref:    ANY
source:         RIPE

route-set:      RS-EXAMPLE
members:        192.0.2.0/24, 198.51.100.0/24^+
members:        RS-OTHER^25-28, AS64500
source:         RIPE

peering-set:    PRNG-EXAMPLE
peering:        AS64500 at 192.0.2.1
source:         RIPE

filter-set:     FLTR-MARTIAN
filter:         { 10.0.0.0/8^+, 192.168.0.0/16^+ }
source:         RIPE

route:          192.0.2.0/24
origin:         AS64500
source:         RIPE

route6:         2001:db8::/32
origin:         AS64500
source:         RIPE
`

func TestBuilderDecomposesAll(t *testing.T) {
	x := ParseText(miniIRR, "RIPE")
	if len(x.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", x.Errors)
	}
	an := x.AutNums[64500]
	if an == nil {
		t.Fatal("aut-num missing")
	}
	if len(an.Imports) != 3 || len(an.Exports) != 2 {
		t.Errorf("imports=%d exports=%d", len(an.Imports), len(an.Exports))
	}
	if an.Name != "TRANSIT-A" {
		t.Errorf("as-name = %q", an.Name)
	}
	if len(an.MemberOfs) != 1 || an.MemberOfs[0] != "AS64499:AS-CUSTOMERS" {
		t.Errorf("member-of = %v", an.MemberOfs)
	}
	if !an.Imports[2].MP {
		t.Error("mp-import not flagged MP")
	}

	set := x.AsSets["AS-EXAMPLE"]
	if set == nil {
		t.Fatal("as-set missing")
	}
	if len(set.MemberASNs) != 2 || len(set.MemberSets) != 1 {
		t.Errorf("as-set members = %v %v", set.MemberASNs, set.MemberSets)
	}
	if len(set.MbrsByRef) != 1 || set.MbrsByRef[0] != "ANY" {
		t.Errorf("mbrs-by-ref = %v", set.MbrsByRef)
	}

	rs := x.RouteSets["RS-EXAMPLE"]
	if rs == nil {
		t.Fatal("route-set missing")
	}
	if len(rs.Members) != 4 {
		t.Fatalf("route-set members = %v", rs.Members)
	}
	if rs.Members[0].Kind != ir.RSMemberPrefix {
		t.Errorf("member 0 = %+v", rs.Members[0])
	}
	if rs.Members[2].Kind != ir.RSMemberSet || rs.Members[2].Name != "RS-OTHER" || rs.Members[2].Op.IsNone() {
		t.Errorf("member 2 = %+v", rs.Members[2])
	}
	if rs.Members[3].Kind != ir.RSMemberASN || rs.Members[3].ASN != 64500 {
		t.Errorf("member 3 = %+v", rs.Members[3])
	}

	ps := x.PeeringSets["PRNG-EXAMPLE"]
	if ps == nil || len(ps.Peerings) != 1 {
		t.Fatalf("peering-set = %+v", ps)
	}
	if ps.Peerings[0].ASExpr.ASN != 64500 || ps.Peerings[0].LocalRouter != "192.0.2.1" {
		t.Errorf("peering = %+v", ps.Peerings[0])
	}

	fs := x.FilterSets["FLTR-MARTIAN"]
	if fs == nil || fs.Filter.Kind != ir.FilterPrefixSet || len(fs.Filter.Prefixes) != 2 {
		t.Fatalf("filter-set = %+v", fs)
	}

	if len(x.Routes) != 2 {
		t.Fatalf("routes = %d", len(x.Routes))
	}
	if x.Routes[0].Origin != 64500 {
		t.Errorf("route origin = %v", x.Routes[0].Origin)
	}
	if x.Counts["RIPE"]["aut-num"] != 1 || x.Counts["RIPE"]["route"] != 1 {
		t.Errorf("counts = %v", x.Counts)
	}
}

func TestBuilderPriorityFirstWins(t *testing.T) {
	high := "aut-num: AS1\nas-name: HIGH\nsource: RIPE\n"
	low := "aut-num: AS1\nas-name: LOW\nsource: RADB\n"
	x := ParseTexts(DumpText{"RIPE", high}, DumpText{"RADB", low})
	if x.AutNums[1].Name != "HIGH" {
		t.Errorf("priority merge kept %q", x.AutNums[1].Name)
	}
}

func TestBuilderRouteDuplication(t *testing.T) {
	text := `route: 192.0.2.0/24
origin: AS1

route: 192.0.2.0/24
origin: AS2

route: 192.0.2.0/24
origin: AS1
`
	// Same (prefix, origin, source) deduplicated; different origins kept.
	if x := ParseText(text, "RADB"); len(x.Routes) != 2 {
		t.Errorf("routes = %d, want 2", len(x.Routes))
	}
	// The same pair from a different IRR is kept (cross-IRR duplication
	// is one of the paper's measurements).
	x := ParseTexts(DumpText{"RADB", text}, DumpText{"NTTCOM", "route: 192.0.2.0/24\norigin: AS1\n"})
	if len(x.Routes) != 3 {
		t.Errorf("routes after cross-IRR dup = %d, want 3", len(x.Routes))
	}
}

func TestBuilderErrorCensus(t *testing.T) {
	text := `aut-num: ASBAD
source: T

aut-num: AS10
import: from accept ANY
source: T

as-set: BADNAME
members: AS1
source: T

as-set: AS-WITHANY
members: ANY
source: T

route-set: NOT-A-ROUTESET-NAME
source: T

route: banana
origin: AS1

route: 192.0.2.0/24
source: T

route: 192.0.2.0/24
origin: ASXYZ

route6: 10.0.0.0/8
origin: AS1
`
	x := ParseText(text, "T")
	kinds := map[string]int{}
	for _, e := range x.Errors {
		kinds[e.Kind]++
	}
	if kinds["syntax"] < 5 {
		t.Errorf("syntax errors = %d, want >= 5 (%v)", kinds["syntax"], x.Errors)
	}
	if kinds["invalid-as-set-name"] != 1 {
		t.Errorf("invalid as-set names = %d", kinds["invalid-as-set-name"])
	}
	if kinds["invalid-route-set-name"] != 1 {
		t.Errorf("invalid route-set names = %d", kinds["invalid-route-set-name"])
	}
	if !x.AsSets["AS-WITHANY"].ContainsAnyKeyword {
		t.Error("ANY keyword member not flagged")
	}
	// aut-num with the unparseable import still exists, with 0 imports.
	if an := x.AutNums[10]; an == nil || len(an.Imports) != 0 {
		t.Errorf("aut-num 10 = %+v", x.AutNums[10])
	}
}

func TestClassifySetName(t *testing.T) {
	cases := map[string]SetClass{
		"AS-FOO":            SetClassAs,
		"AS1:AS-BAR":        SetClassAs,
		"RS-ROUTES":         SetClassRoute,
		"AS1:RS-ROUTES:AS2": SetClassRoute,
		"FLTR-MARTIAN":      SetClassFilter,
		"PRNG-PEERS":        SetClassPeering,
		"RTRS-ROUTERS":      SetClassRtr,
		"AS123":             SetClassNone,
		"RANDOM":            SetClassNone,
		"as-lowercase":      SetClassAs,
	}
	for name, want := range cases {
		if got := ClassifySetName(name); got != want {
			t.Errorf("ClassifySetName(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestValidSetNames(t *testing.T) {
	if !ValidAsSetName("AS-FOO") || !ValidAsSetName("AS1:AS-FOO") || !ValidAsSetName("AS-FOO:AS64500") {
		t.Error("valid as-set names rejected")
	}
	for _, bad := range []string{"AS-", "FOO", "AS1", "AS1:AS2", "AS-FOO:", "AS-F OO", "AS-foo!"} {
		if ValidAsSetName(bad) {
			t.Errorf("ValidAsSetName(%q) = true", bad)
		}
	}
	if !ValidRouteSetName("RS-X") || ValidRouteSetName("AS-X") {
		t.Error("route-set name validation wrong")
	}
	if !ValidFilterSetName("FLTR-MARTIAN") || !ValidPeeringSetName("PRNG-X") {
		t.Error("filter/peering set name validation wrong")
	}
}

func TestIsReservedSetName(t *testing.T) {
	if !IsReservedSetName("AS-ANY") || !IsReservedSetName("rs-any") || IsReservedSetName("AS-FOO") {
		t.Error("reserved name detection wrong")
	}
}

func TestParseFilterStandalone(t *testing.T) {
	f, err := ParseFilter("AS-FOO AND NOT {0.0.0.0/0}")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != ir.FilterAnd {
		t.Errorf("filter = %v", f)
	}
	f2, err := ParseFilter("community(65535:666)")
	if err != nil {
		t.Fatal(err)
	}
	if f2.Kind != ir.FilterCommunity || !strings.Contains(f2.Call, "65535:666") {
		t.Errorf("community filter = %+v", f2)
	}
}

func TestSplitList(t *testing.T) {
	obj := &rpsl.Object{Attrs: []rpsl.Attribute{
		{Key: "members", Value: "AS1,, as2 ,AS3"}, {Key: "mp-members", Value: "\tas5"},
		{Key: "members", Value: " AS4,"}, {Key: "mp-members"}, {Key: "mnt-by", Value: ", ,,"},
	}}
	got := splitList(obj, "members", "mp-members")
	want := []string{"AS1", "AS2", "AS3", "AS4", "AS5"}
	if len(got) != len(want) {
		t.Fatalf("splitList = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("splitList[%d] = %q", i, got[i])
		}
	}
	if len(got) != cap(got) {
		t.Errorf("splitList has cap %d for %d fields, want its exact size", cap(got), len(got))
	}
	if splitList(obj, "mnt-by") != nil || splitList(obj, "nonexistent") != nil {
		t.Error("empty list should be nil")
	}
}

func TestFilterSetVariants(t *testing.T) {
	// mp-filter fallback, missing filter attribute, and duplicates.
	x := ParseText(`
filter-set: FLTR-MP
mp-filter: { 2001:db8::/32^+ }

filter-set: FLTR-NONE
descr: missing filter attribute

filter-set: FLTR-MP
mp-filter: ANY
`, "T")
	fs := x.FilterSets["FLTR-MP"]
	if fs == nil || fs.Filter.Kind != ir.FilterPrefixSet {
		t.Fatalf("mp-filter = %+v", fs)
	}
	empty := x.FilterSets["FLTR-NONE"]
	if empty == nil || empty.Filter.Kind != ir.FilterUnsupported {
		t.Errorf("missing-filter set = %+v", empty)
	}
	errs := 0
	for _, e := range x.Errors {
		if e.Kind == "syntax" {
			errs++
		}
	}
	if errs != 1 {
		t.Errorf("syntax errors = %d, want 1 (missing filter)", errs)
	}
}

func TestPeeringSetBadPeering(t *testing.T) {
	x := ParseText(`
peering-set: PRNG-BAD
peering: !!!

peering-set: PRNG-DUP
peering: AS1

peering-set: PRNG-DUP
peering: AS2
`, "T")
	if len(x.PeeringSets["PRNG-BAD"].Peerings) != 0 {
		t.Error("bad peering parsed")
	}
	found := false
	for _, e := range x.Errors {
		if e.Kind == "syntax" && strings.Contains(e.Msg, "bad peering") {
			found = true
		}
	}
	if !found {
		t.Errorf("bad peering not reported: %v", x.Errors)
	}
	// Duplicate keeps the first definition.
	if x.PeeringSets["PRNG-DUP"].Peerings[0].ASExpr.ASN != 1 {
		t.Error("duplicate peering-set did not keep first definition")
	}
}

func TestActionVariants(t *testing.T) {
	r, err := ParseRule(ir.DirImport, false, "from AS1 action community.={64500:1}; med=igp; aspath.prepend(AS1, AS1); dpa = 5; accept ANY")
	if err != nil {
		t.Fatal(err)
	}
	acts := r.Expr.Factors[0].Peerings[0].Actions
	if len(acts) != 4 {
		t.Fatalf("actions = %+v", acts)
	}
	if acts[0].Attr != "community" || acts[0].Op != ".=" || !strings.Contains(acts[0].Value, "64500:1") {
		t.Errorf("community.= = %+v", acts[0])
	}
	if acts[1].Attr != "med" || acts[1].Value != "igp" {
		t.Errorf("med = %+v", acts[1])
	}
	if acts[2].Attr != "aspath" || acts[2].Op != "prepend" {
		t.Errorf("prepend = %+v", acts[2])
	}
	if acts[3].Attr != "dpa" || acts[3].Value != "5" {
		t.Errorf("dpa = %+v", acts[3])
	}
}

func TestPeeringAndExpression(t *testing.T) {
	r, err := ParseRule(ir.DirImport, false, "from AS-A AND AS-B accept ANY")
	if err != nil {
		t.Fatal(err)
	}
	e := r.Expr.Factors[0].Peerings[0].Peering.ASExpr
	if e.Kind != ir.ASExprAnd || e.Left.Name != "AS-A" || e.Right.Name != "AS-B" {
		t.Errorf("AND expr = %v", e)
	}
}

func TestNestedParenArgs(t *testing.T) {
	f, err := ParseFilter("community((65535:666))")
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != ir.FilterCommunity || !strings.Contains(f.Call, "65535:666") {
		t.Errorf("nested args = %+v", f)
	}
}
