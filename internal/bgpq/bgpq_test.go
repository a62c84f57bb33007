package bgpq

import (
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
)

func dbFrom(t *testing.T, text string) *irr.Database {
	t.Helper()
	return irr.New(parser.ParseText(text, "TEST"))
}

func ruleOf(t *testing.T, text string) *ir.Rule {
	t.Helper()
	r, err := parser.ParseRule(ir.DirImport, false, text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	return &r
}

func TestCompatible(t *testing.T) {
	compatible := []string{
		"from AS1 accept ANY",
		"from AS1 accept AS2",
		"from AS1 accept AS-FOO",
		"from AS1 accept RS-BAR",
		"from AS1 accept { 192.0.2.0/24 }",
		"from AS1 accept PeerAS",
	}
	incompatible := []string{
		"from AS1 accept FLTR-MARTIAN",
		"from AS1 accept <^AS1 AS2$>",
		"from AS1 accept community(65535:666)",
		"from AS1 accept AS-FOO AND NOT AS-BAR",
		"from AS1 accept NOT AS2",
		"from AS1 accept ANY REFINE from AS1 accept AS2",
		"from AS1 accept ANY EXCEPT from AS1 accept AS2",
	}
	for _, text := range compatible {
		if !Compatible(ruleOf(t, text)) {
			t.Errorf("Compatible(%q) = false", text)
		}
	}
	for _, text := range incompatible {
		if Compatible(ruleOf(t, text)) {
			t.Errorf("Compatible(%q) = true", text)
		}
	}
}

const testIRR = `
as-set: AS-EXAMPLE
members: AS64500, AS64501

route: 192.0.2.0/24
origin: AS64500

route: 198.51.100.0/24
origin: AS64501

route: 198.51.101.0/24
origin: AS64501

route-set: RS-STATIC
members: 203.0.113.0/24

route6: 2001:db8::/32
origin: AS64500
`

func TestResolveASN(t *testing.T) {
	db := dbFrom(t, testIRR)
	ps, err := Resolve(db, "AS64500")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 { // v4 + v6
		t.Fatalf("prefixes = %v", ps)
	}
	if _, err := Resolve(db, "AS99999"); err == nil {
		t.Error("zero-route AS resolved")
	}
}

func TestResolveAsSetAndRouteSet(t *testing.T) {
	db := dbFrom(t, testIRR)
	ps, err := Resolve(db, "AS-EXAMPLE")
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 4 {
		t.Fatalf("as-set prefixes = %v", ps)
	}
	rs, err := Resolve(db, "RS-STATIC")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].String() != "203.0.113.0/24" {
		t.Fatalf("route-set prefixes = %v", rs)
	}
	if _, err := Resolve(db, "AS-NOPE"); err == nil {
		t.Error("missing as-set resolved")
	}
	if _, err := Resolve(db, "RS-NOPE"); err == nil {
		t.Error("missing route-set resolved")
	}
}

func TestGenerateIOS(t *testing.T) {
	db := dbFrom(t, testIRR)
	out, err := Generate(db, "AS-EXAMPLE", GenerateOptions{Name: "CUST"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no ip prefix-list CUST") {
		t.Errorf("missing header: %s", out)
	}
	if !strings.Contains(out, "permit 192.0.2.0/24") {
		t.Errorf("missing prefix: %s", out)
	}
	if strings.Contains(out, "2001:db8") {
		t.Errorf("IPv6 leaked into IPv4 list: %s", out)
	}
}

func TestGenerateIOSv6(t *testing.T) {
	db := dbFrom(t, testIRR)
	out, err := Generate(db, "AS64500", GenerateOptions{Name: "V6", IPv6: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2001:db8::/32") {
		t.Errorf("missing v6 prefix: %s", out)
	}
}

func TestGenerateJunos(t *testing.T) {
	db := dbFrom(t, testIRR)
	out, err := Generate(db, "AS-EXAMPLE", GenerateOptions{Name: "CUST", Format: FormatJunos})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "policy-statement CUST") || !strings.Contains(out, "route-filter 192.0.2.0/24 exact;") {
		t.Errorf("junos output: %s", out)
	}
}

func TestGenerateEmptyDenies(t *testing.T) {
	db := dbFrom(t, testIRR+`
as-set: AS-VOID
members: AS77777
`)
	out, err := Generate(db, "AS-VOID", GenerateOptions{Name: "VOID"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deny 0.0.0.0/0") {
		t.Errorf("empty set should deny: %s", out)
	}
}

func TestAggregate(t *testing.T) {
	db := dbFrom(t, `
route: 10.0.0.0/24
origin: AS1

route: 10.0.1.0/24
origin: AS1

route: 10.0.2.0/24
origin: AS1
`)
	out, err := Generate(db, "AS1", GenerateOptions{Name: "AGG", Aggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "10.0.0.0/23") {
		t.Errorf("siblings not aggregated: %s", out)
	}
	if !strings.Contains(out, "10.0.2.0/24") {
		t.Errorf("lone prefix lost: %s", out)
	}
}

func TestSiblings(t *testing.T) {
	a := prefix.MustParse("10.0.0.0/24")
	b := prefix.MustParse("10.0.1.0/24")
	c := prefix.MustParse("10.0.2.0/24")
	if !siblings(a, b) {
		t.Error("a,b should be siblings")
	}
	if siblings(b, c) {
		t.Error("b,c are not siblings")
	}
	if siblings(a, a) {
		t.Error("identical prefixes are not siblings")
	}
}
