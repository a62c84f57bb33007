package render

import (
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/topology"
)

func reparse(t *testing.T, texts map[string]string) *ir.IR {
	t.Helper()
	// Deterministic priority order: known IRRs first.
	var order []string
	for _, name := range irrgen.IRRs {
		if _, ok := texts[name]; ok {
			order = append(order, name)
		}
	}
	for name := range texts {
		known := false
		for _, k := range irrgen.IRRs {
			if k == name {
				known = true
			}
		}
		if !known {
			order = append(order, name)
		}
	}
	var dumps []parser.DumpText
	for _, name := range order {
		dumps = append(dumps, parser.DumpText{Source: name, Text: texts[name]})
	}
	return parser.ParseTexts(dumps...)
}

func TestRenderSingleObjects(t *testing.T) {
	x := reparse(t, map[string]string{"RIPE": `
aut-num:        AS64500
as-name:        EXAMPLE
import:         from AS64501 accept AS-CUST
export:         to AS64501 announce ANY
default:        to AS64501
member-of:      AS-GROUP
mnt-by:         MNT-X
source:         RIPE

as-set:         AS-CUST
members:        AS64501, AS-SUB
mbrs-by-ref:    ANY
source:         RIPE

route-set:      RS-X
members:        192.0.2.0/24^+, RS-Y^25-28, AS64500
source:         RIPE

peering-set:    PRNG-X
peering:        AS64500 at 192.0.2.1
source:         RIPE

filter-set:     FLTR-X
filter:         ANY AND NOT {10.0.0.0/8^+}
source:         RIPE

route:          192.0.2.0/24
origin:         AS64500
mnt-by:         MNT-X
source:         RIPE

inet-rtr:       rtr.example.net
local-as:       AS64500
ifaddr:         192.0.2.1 masklen 30
source:         RIPE

rtr-set:        RTRS-X
members:        rtr.example.net
source:         RIPE
`})
	texts := IR(x)
	text := texts["RIPE"]
	for _, want := range []string{
		"aut-num:        AS64500",
		"import:         from AS64501 accept AS-CUST",
		"default:        to AS64501",
		"as-set:         AS-CUST",
		"members:        AS64501, AS-SUB",
		"route-set:      RS-X",
		"192.0.2.0/24^+, RS-Y^25-28, AS64500",
		"peering-set:    PRNG-X",
		"peering:        AS64500 at 192.0.2.1",
		"filter-set:     FLTR-X",
		"route:          192.0.2.0/24",
		"inet-rtr:       rtr.example.net",
		"rtr-set:        RTRS-X",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("rendered dump missing %q\n%s", want, text)
		}
	}
}

// TestRoundTripFixedPoint is the renderer's core property: parsing a
// rendered IR reproduces the same object universe, and rendering again
// is byte-identical (a fixed point).
func TestRoundTripFixedPoint(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 31, ASes: 250})
	u := irrgen.Generate(topo, irrgen.Config{Seed: 31})
	var dumps []parser.DumpText
	for _, name := range irrgen.IRRs {
		dumps = append(dumps, parser.DumpText{Source: name, Text: u.DumpText(name)})
	}
	x := parser.ParseTexts(dumps...)

	texts := IR(x)
	y := reparse(t, texts)

	if len(y.AutNums) != len(x.AutNums) {
		t.Fatalf("aut-nums: %d vs %d", len(y.AutNums), len(x.AutNums))
	}
	if len(y.AsSets) != len(x.AsSets) || len(y.RouteSets) != len(x.RouteSets) {
		t.Fatalf("sets: %d/%d vs %d/%d", len(y.AsSets), len(y.RouteSets), len(x.AsSets), len(x.RouteSets))
	}
	if len(y.Routes) != len(x.Routes) {
		t.Fatalf("routes: %d vs %d", len(y.Routes), len(x.Routes))
	}
	// Per-AS rule counts survive.
	for asn, an := range x.AutNums {
		bn := y.AutNums[asn]
		if bn == nil {
			t.Fatalf("%s lost", asn)
		}
		if bn.RuleCount() != an.RuleCount() {
			t.Fatalf("%s rules: %d vs %d", asn, bn.RuleCount(), an.RuleCount())
		}
	}
	// Fixed point: the second render is byte-identical.
	texts2 := IR(y)
	if len(texts2) != len(texts) {
		t.Fatalf("source count changed: %d vs %d", len(texts2), len(texts))
	}
	for src, want := range texts {
		if texts2[src] != want {
			t.Fatalf("render of source %s not a fixed point", src)
		}
	}
}

func TestStripOuterParens(t *testing.T) {
	cases := map[string]string{
		"(AS1 OR AS2)":              "AS1 OR AS2",
		"(AS1) AND (AS2)":           "(AS1) AND (AS2)",
		"AS1":                       "AS1",
		"((AS1 OR AS2) EXCEPT AS3)": "(AS1 OR AS2) EXCEPT AS3",
		"()":                        "",
	}
	for in, want := range cases {
		if got := stripOuterParens(in); got != want {
			t.Errorf("stripOuterParens(%q) = %q, want %q", in, got, want)
		}
	}
}
