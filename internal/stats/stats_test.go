package stats

import (
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
)

func irFrom(t *testing.T, text string) *ir.IR {
	t.Helper()
	return parser.ParseText(text, "RIPE")
}

const statsIRR = `
aut-num: AS1
import: from AS2 accept AS-CUST
export: to AS2 announce AS1
import: from PRNG-X accept RS-ROUTES
import: from AS3 accept FLTR-F

aut-num: AS2
import: from AS-PEERS accept <^AS5 .*$>

aut-num: AS3

as-set: AS-CUST
members: AS1, AS9

as-set: AS-PEERS
members: AS2

as-set: AS-LONELY
members: AS7

as-set: AS-EMPTY

route-set: RS-ROUTES
members: 192.0.2.0/24

route: 192.0.2.0/24
origin: AS1

route: 192.0.2.0/24
origin: AS2

route: 198.51.100.0/24
origin: AS1
mnt-by: MNT-A

route: 198.51.100.0/24
origin: AS2
mnt-by: MNT-B
`

func TestTable1(t *testing.T) {
	x := irFrom(t, statsIRR)
	rows := Table1(x, map[string]int64{"RIPE": 2 << 20}, []string{"RIPE"})
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	r := rows[0]
	if r.IRR != "RIPE" || r.AutNums != 3 || r.Routes != 4 {
		t.Errorf("row = %+v", r)
	}
	if r.Imports != 4 || r.Exports != 1 {
		t.Errorf("rules = %d/%d", r.Imports, r.Exports)
	}
	if r.SizeMiB != 2.0 {
		t.Errorf("size = %v", r.SizeMiB)
	}
	total := Table1Total(rows)
	if total.AutNums != 3 {
		t.Errorf("total = %+v", total)
	}
}

func TestComputeTable2(t *testing.T) {
	x := irFrom(t, statsIRR)
	t2 := ComputeTable2(x)
	if t2.AutNum.Defined != 3 {
		t.Errorf("aut-num defined = %d", t2.AutNum.Defined)
	}
	// Referenced aut-nums: AS2, AS3 (peerings); AS1 (filter); AS5 (regex filter).
	if t2.AutNum.RefPeering != 2 {
		t.Errorf("aut-num ref peering = %d", t2.AutNum.RefPeering)
	}
	if t2.AutNum.RefFilter != 2 {
		t.Errorf("aut-num ref filter = %d", t2.AutNum.RefFilter)
	}
	if t2.AutNum.RefOverall != 4 {
		t.Errorf("aut-num ref overall = %d", t2.AutNum.RefOverall)
	}
	if t2.AsSet.Defined != 4 || t2.AsSet.RefPeering != 1 || t2.AsSet.RefFilter != 1 {
		t.Errorf("as-set = %+v", t2.AsSet)
	}
	if t2.RouteSet.RefOverall != 1 || t2.PeeringSet.RefOverall != 1 || t2.FilterSet.RefOverall != 1 {
		t.Errorf("sets = %+v %+v %+v", t2.RouteSet, t2.PeeringSet, t2.FilterSet)
	}
}

func TestRuleCCDF(t *testing.T) {
	x := irFrom(t, statsIRR)
	all, bq := RuleCCDF(x)
	// AS1: 4 rules, AS2: 1 rule, AS3: 0 rules.
	if FracWithAtLeast(all, 1) < 0.66 || FracWithAtLeast(all, 1) > 0.67 {
		t.Errorf(">=1 = %v", FracWithAtLeast(all, 1))
	}
	if FracWithAtLeast(all, 4) < 0.33 || FracWithAtLeast(all, 4) > 0.34 {
		t.Errorf(">=4 = %v", FracWithAtLeast(all, 4))
	}
	if FracWithAtLeast(all, 5) != 0 {
		t.Errorf(">=5 = %v", FracWithAtLeast(all, 5))
	}
	// AS2's only rule is a regex -> 0 BGPq4-compatible; AS1 has 3
	// compatible (the FLTR rule is incompatible).
	if FracWithAtLeast(bq, 1) < 0.33 || FracWithAtLeast(bq, 1) > 0.34 {
		t.Errorf("bgpq >=1 = %v", FracWithAtLeast(bq, 1))
	}
}

func TestComputeSection4(t *testing.T) {
	x := irFrom(t, statsIRR)
	s := ComputeSection4(x)
	if s.AutNums != 3 || s.AutNumsNoRules != 1 || s.ASesWithRules != 2 {
		t.Errorf("stats = %+v", s)
	}
	// Peerings: AS2, AS2, PRNG-X, AS3, AS-PEERS = 5; simple = AS2, AS2, AS3 = 3.
	if s.Peerings != 5 || s.SimplePeerings != 3 {
		t.Errorf("peerings = %d simple = %d", s.Peerings, s.SimplePeerings)
	}
	if s.FilterClasses["as-set"] != 1 || s.FilterClasses["asn"] != 1 ||
		s.FilterClasses["route-set"] != 1 || s.FilterClasses["filter-set"] != 1 ||
		s.FilterClasses["as-path-regex"] != 1 {
		t.Errorf("filter classes = %v", s.FilterClasses)
	}
	if s.ASesBGPq4Only != 0 {
		t.Errorf("both rule-writing ASes have incompatible rules: %+v", s)
	}
}

func TestComputeRouteObjectStats(t *testing.T) {
	x := irFrom(t, statsIRR)
	s := ComputeRouteObjectStats(x)
	if s.Objects != 4 {
		t.Errorf("objects = %d", s.Objects)
	}
	if s.UniquePrefixOrigin != 4 {
		t.Errorf("unique pairs = %d", s.UniquePrefixOrigin)
	}
	if s.UniquePrefixes != 2 {
		t.Errorf("unique prefixes = %d", s.UniquePrefixes)
	}
	if s.MultiObjectPrefixes != 2 || s.MultiOriginPrefixes != 2 {
		t.Errorf("multi = %+v", s)
	}
	if s.MultiSourcePrefixes != 1 {
		t.Errorf("multi source = %d", s.MultiSourcePrefixes)
	}
}

func TestComputeAsSetStats(t *testing.T) {
	x := irFrom(t, statsIRR+"\nas-set: AS-R1\nmembers: AS-R2\n\nas-set: AS-R2\nmembers: AS-R1\n")
	db := irr.New(x)
	s := ComputeAsSetStats(db)
	if s.Total != 6 {
		t.Errorf("total = %d", s.Total)
	}
	if s.Empty != 1 {
		t.Errorf("empty = %d", s.Empty)
	}
	if s.SingleMember != 2 { // AS-PEERS, AS-LONELY
		t.Errorf("single = %d", s.SingleMember)
	}
	if s.Recursive != 2 || s.InLoop != 2 {
		t.Errorf("recursive=%d loop=%d", s.Recursive, s.InLoop)
	}
}

func TestErrorCensus(t *testing.T) {
	x := irFrom(t, "as-set: NOTVALID\nmembers: AS1\n")
	c := ErrorCensus(x)
	if c["invalid-as-set-name"] != 1 {
		t.Errorf("census = %v", c)
	}
}

func TestCCDFEmpty(t *testing.T) {
	if pts := ccdf(nil); pts != nil {
		t.Errorf("ccdf(nil) = %v", pts)
	}
	if FracWithAtLeast(nil, 1) != 0 {
		t.Error("FracWithAtLeast on empty should be 0")
	}
}
