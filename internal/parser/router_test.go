package parser

import (
	"testing"

	"rpslyzer/internal/ir"
)

func TestParseDefaultRule(t *testing.T) {
	d, err := ParseDefaultRule(false, "to AS3356 action pref=100; networks ANY")
	if err != nil {
		t.Fatal(err)
	}
	if d.Peering.ASExpr == nil || d.Peering.ASExpr.ASN != 3356 {
		t.Errorf("peering = %+v", d.Peering)
	}
	if len(d.Actions) != 1 || d.Actions[0].Attr != "pref" {
		t.Errorf("actions = %+v", d.Actions)
	}
	if d.Networks == nil || d.Networks.Kind != ir.FilterAny {
		t.Errorf("networks = %v", d.Networks)
	}
}

func TestParseDefaultRuleMinimal(t *testing.T) {
	d, err := ParseDefaultRule(false, "to AS174")
	if err != nil {
		t.Fatal(err)
	}
	if d.Networks != nil || len(d.Actions) != 0 {
		t.Errorf("minimal default = %+v", d)
	}
}

func TestParseDefaultRuleMP(t *testing.T) {
	d, err := ParseDefaultRule(true, "afi ipv6.unicast to AS174 networks {::/0}")
	if err != nil {
		t.Fatal(err)
	}
	if !d.MP || d.Networks == nil || d.Networks.Kind != ir.FilterPrefixSet {
		t.Errorf("mp default = %+v", d)
	}
}

func TestParseDefaultRuleErrors(t *testing.T) {
	for _, text := range []string{"", "from AS1", "to !!!", "to AS1 garbage }"} {
		if _, err := ParseDefaultRule(false, text); err == nil {
			t.Errorf("ParseDefaultRule(%q) succeeded", text)
		}
	}
}

func TestDecomposeDefaultAttribute(t *testing.T) {
	x := ParseText(`
aut-num: AS64500
default: to AS3356 action pref=10;
default: to AS1299
mp-default: to AS6939 networks ANY
`, "RIPE")
	an := x.AutNums[64500]
	if an == nil || len(an.Defaults) != 3 {
		t.Fatalf("defaults = %+v", an)
	}
	if !an.Defaults[2].MP {
		t.Error("mp-default not flagged")
	}
}

func TestDecomposeInetRtr(t *testing.T) {
	x := ParseText(`
inet-rtr: rtr1.example.net
local-as: AS64500
ifaddr: 192.0.2.1 masklen 30
ifaddr: 192.0.2.5 masklen 30
peer: BGP4 192.0.2.2 asno(AS64501)
`, "RIPE")
	rtr := x.InetRtrs["RTR1.EXAMPLE.NET"]
	if rtr == nil {
		t.Fatal("inet-rtr missing")
	}
	if rtr.LocalAS != 64500 || len(rtr.IfAddrs) != 2 || len(rtr.Peers) != 1 {
		t.Errorf("inet-rtr = %+v", rtr)
	}
}

func TestDecomposeInetRtrBadLocalAS(t *testing.T) {
	x := ParseText("inet-rtr: r.example\nlocal-as: banana\n", "RIPE")
	if len(x.Errors) != 1 {
		t.Errorf("errors = %v", x.Errors)
	}
	if x.InetRtrs["R.EXAMPLE"] == nil {
		t.Error("object dropped on attribute error")
	}
}

func TestDecomposeRtrSet(t *testing.T) {
	x := ParseText(`
rtr-set: RTRS-EXAMPLE
members: rtr1.example.net, RTRS-OTHER, 192.0.2.9
`, "RIPE")
	set := x.RtrSets["RTRS-EXAMPLE"]
	if set == nil || len(set.Members) != 3 {
		t.Fatalf("rtr-set = %+v", set)
	}
	// Invalid name census.
	x2 := ParseText("rtr-set: NOTVALID\nmembers: x\n", "RIPE")
	found := false
	for _, e := range x2.Errors {
		if e.Kind == "invalid-rtr-set-name" {
			found = true
		}
	}
	if !found {
		t.Error("invalid rtr-set name not flagged")
	}
}
