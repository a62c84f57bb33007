package lint

import (
	"strings"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
)

func dbFrom(t *testing.T, text string) *irr.Database {
	t.Helper()
	return irr.New(parser.ParseText(text, "TEST"))
}

func findingsByRule(fs []Finding) map[string][]Finding {
	out := make(map[string][]Finding)
	for _, f := range fs {
		out[f.Rule] = append(out[f.Rule], f)
	}
	return out
}

func TestLintAsSetPathologies(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-EMPTY

as-set: AS-SINGLE
members: AS7

as-set: AS-LOOPX
members: AS-LOOPY

as-set: AS-LOOPY
members: AS-LOOPX

as-set: AS-MISSINGREF
members: AS1, AS-GONE

as-set: AS-ANY
`)
	fs := New(db, nil).Run()
	byRule := findingsByRule(fs)
	if len(byRule["empty-as-set"]) < 1 {
		t.Errorf("empty-as-set findings = %v", byRule["empty-as-set"])
	}
	if len(byRule["single-member-as-set"]) != 1 {
		t.Errorf("single-member findings = %v", byRule["single-member-as-set"])
	}
	if len(byRule["as-set-loop"]) != 2 {
		t.Errorf("loop findings = %v", byRule["as-set-loop"])
	}
	if len(byRule["unrecorded-member"]) != 1 || !strings.Contains(byRule["unrecorded-member"][0].Msg, "AS-GONE") {
		t.Errorf("unrecorded member findings = %v", byRule["unrecorded-member"])
	}
	if len(byRule["reserved-set-name"]) != 1 {
		t.Errorf("reserved name findings = %v", byRule["reserved-set-name"])
	}
}

func TestLintDeepChain(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 6; i++ {
		b.WriteString("as-set: AS-D")
		b.WriteByte(byte('0' + i))
		b.WriteString("\nmembers: ")
		if i < 5 {
			b.WriteString("AS-D")
			b.WriteByte(byte('0' + i + 1))
		} else {
			b.WriteString("AS1")
		}
		b.WriteString("\n\n")
	}
	db := dbFrom(t, b.String())
	fs := New(db, nil).Run()
	byRule := findingsByRule(fs)
	if len(byRule["deep-as-set"]) == 0 {
		t.Errorf("deep-as-set not flagged: %v", fs)
	}
}

func TestLintRuleReferences(t *testing.T) {
	db := dbFrom(t, `
aut-num: AS1
import: from AS2 accept AS-NOPE
import: from AS3 accept RS-NOPE
import: from PRNG-NOPE accept ANY
import: from AS4 accept FLTR-NOPE
import: from AS5 accept AS777
import: from AS6 accept community(65535:666)
import: from AS7 accept <AS-REGEXGONE$>
import: from AS-PEERSGONE accept ANY
`)
	fs := New(db, nil).Run()
	byRule := findingsByRule(fs)
	if n := len(byRule["unrecorded-reference"]); n != 6 {
		t.Errorf("unrecorded-reference = %d findings: %v", n, byRule["unrecorded-reference"])
	}
	if len(byRule["zero-route-filter"]) != 1 {
		t.Errorf("zero-route-filter = %v", byRule["zero-route-filter"])
	}
	if len(byRule["community-filter"]) != 1 {
		t.Errorf("community-filter = %v", byRule["community-filter"])
	}
}

func TestLintEmptySetFilter(t *testing.T) {
	db := dbFrom(t, `
aut-num: AS1
import: from AS2 accept AS-HOLLOW

as-set: AS-HOLLOW
`)
	fs := New(db, nil).Run()
	byRule := findingsByRule(fs)
	if len(byRule["empty-set-filter"]) != 1 {
		t.Errorf("empty-set-filter = %v", byRule["empty-set-filter"])
	}
}

func TestLintMisuse(t *testing.T) {
	db := dbFrom(t, `
aut-num: AS100
export: to AS10 announce AS100
import: from AS200 accept AS200

route: 192.0.2.0/24
origin: AS100

route: 198.51.100.0/24
origin: AS200
`)
	rels := asrel.New()
	rels.AddP2C(10, 100)  // 10 provider of 100
	rels.AddP2C(100, 200) // 200 customer of 100
	rels.AddP2C(200, 300) // 200 has its own customer
	fs := New(db, rels).Run()
	byRule := findingsByRule(fs)
	if len(byRule["export-self"]) != 1 {
		t.Errorf("export-self = %v", byRule["export-self"])
	}
	if len(byRule["import-customer"]) != 1 {
		t.Errorf("import-customer = %v", byRule["import-customer"])
	}
}

func TestLintMisuseNotFlaggedForStubs(t *testing.T) {
	db := dbFrom(t, `
aut-num: AS100
export: to AS10 announce AS100

route: 192.0.2.0/24
origin: AS100
`)
	rels := asrel.New()
	rels.AddP2C(10, 100) // AS100 is a stub
	fs := New(db, rels).Run()
	byRule := findingsByRule(fs)
	if len(byRule["export-self"]) != 0 {
		t.Errorf("stub flagged: %v", byRule["export-self"])
	}
}

func TestLintImportLeafCustomerNotFlagged(t *testing.T) {
	// "from C accept C" with a leaf customer C is correct usage.
	db := dbFrom(t, `
aut-num: AS100
import: from AS200 accept AS200

route: 198.51.100.0/24
origin: AS200
`)
	rels := asrel.New()
	rels.AddP2C(100, 200)
	rels.AddP2C(100, 201) // make AS100 transit
	fs := New(db, rels).Run()
	byRule := findingsByRule(fs)
	if len(byRule["import-customer"]) != 0 {
		t.Errorf("leaf customer import flagged: %v", byRule["import-customer"])
	}
}

func TestLintParseErrorsSurface(t *testing.T) {
	db := dbFrom(t, "as-set: BADNAME\nmembers: AS1\n")
	fs := New(db, nil).Run()
	byRule := findingsByRule(fs)
	if len(byRule["invalid-as-set-name"]) != 1 {
		t.Errorf("parse errors not surfaced: %v", fs)
	}
}

func TestLintSortedBySeverity(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-SINGLE
members: AS7

aut-num: AS1
import: from AS2 accept AS-NOPE
`)
	fs := New(db, nil).Run()
	for i := 1; i < len(fs); i++ {
		if fs[i].Severity > fs[i-1].Severity {
			t.Fatalf("findings not sorted by severity: %v", fs)
		}
	}
}

func TestSummary(t *testing.T) {
	s := Summary([]Finding{{Rule: "a"}, {Rule: "a"}, {Rule: "b"}})
	if s["a"] != 2 || s["b"] != 1 {
		t.Errorf("summary = %v", s)
	}
}

func TestClassifyAS(t *testing.T) {
	db := dbFrom(t, `
aut-num: AS1

aut-num: AS2
import: from AS9 accept ANY
export: to AS9 announce AS2

aut-num: AS3
import: from AS9 accept AS-FOO

aut-num: AS4
import: from AS9 accept <^AS9+$>

aut-num: AS5
mp-import: afi any from AS9 accept ANY REFINE from AS9 accept AS5

as-set: AS-FOO
members: AS3
`)
	cases := map[uint32]UsageClass{
		1:  UsageNoRules,
		2:  UsageSimple,
		3:  UsageSetBased,
		4:  UsageCompound,
		5:  UsageCompound,
		99: UsageNoAutNum,
	}
	for asn, want := range cases {
		if got := ClassifyAS(db, ir.ASN(asn)); got != want {
			t.Errorf("ClassifyAS(AS%d) = %v, want %v", asn, got, want)
		}
	}
	counts := ClassifyAll(db, []ir.ASN{1, 2, 3, 4, 5, 99})
	if counts[UsageCompound] != 2 || counts[UsageNoAutNum] != 1 {
		t.Errorf("ClassifyAll = %v", counts)
	}
}

func TestUsageClassString(t *testing.T) {
	if UsageNoAutNum.String() != "no-aut-num" || UsageCompound.String() != "compound" {
		t.Error("usage names")
	}
	if UsageClass(99).String() != "invalid" {
		t.Error("invalid usage name")
	}
}

func TestSeverityString(t *testing.T) {
	if Info.String() != "info" || Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity names")
	}
	if Severity(9).String() != "invalid" {
		t.Error("invalid severity name")
	}
}
