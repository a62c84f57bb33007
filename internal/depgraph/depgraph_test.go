package depgraph_test

import (
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
)

func TestKeyString(t *testing.T) {
	pfx, err := prefix.Parse("10.0.0.0/8")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[depgraph.Key]string{
		depgraph.AutNumKey(64500):        "aut-num:AS64500",
		depgraph.AsSetKey("AS-EXAMPLE"):  "as-set:AS-EXAMPLE",
		depgraph.RouteSetKey("RS-EX"):    "route-set:RS-EX",
		depgraph.FilterSetKey("FLTR-EX"): "filter-set:FLTR-EX",
		depgraph.PeeringSetKey("PRNG-X"): "peering-set:PRNG-X",
		depgraph.RoutesKey(64501):        "routes:AS64501",
		depgraph.PrefixKey(pfx):          "prefix:10.0.0.0/8",
	} {
		if got := k.String(); got != want {
			t.Errorf("%+v renders as %q, want %q", k, got, want)
		}
	}
}

func TestGraphInvalidation(t *testing.T) {
	g := depgraph.New()
	g.SetProgram(1, []depgraph.Key{depgraph.AutNumKey(1), depgraph.AsSetKey("AS-A")})
	g.SetProgram(2, []depgraph.Key{depgraph.AutNumKey(2), depgraph.AsSetKey("AS-A"), depgraph.RoutesKey(9)})
	g.SetProgram(3, []depgraph.Key{depgraph.AutNumKey(3)})

	if st := g.Stats(); st.Programs != 3 || st.Edges != 6 {
		t.Fatalf("stats after set: %+v", st)
	}
	got := g.Dependents([]depgraph.Key{depgraph.AsSetKey("AS-A")})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("dependents of AS-A: %v", got)
	}
	if got := g.Dependents([]depgraph.Key{depgraph.AsSetKey("AS-MISSING")}); len(got) != 0 {
		t.Fatalf("dependents of unknown key: %v", got)
	}

	// Replacing a program retracts its old edges.
	g.SetProgram(2, []depgraph.Key{depgraph.AutNumKey(2)})
	if got := g.Dependents([]depgraph.Key{depgraph.AsSetKey("AS-A")}); len(got) != 1 || got[0] != 1 {
		t.Fatalf("dependents after replace: %v", got)
	}
	g.RemoveProgram(1)
	if got := g.Dependents([]depgraph.Key{depgraph.AsSetKey("AS-A")}); len(got) != 0 {
		t.Fatalf("dependents after remove: %v", got)
	}
	if st := g.Stats(); st.Programs != 2 || st.Edges != 2 {
		t.Fatalf("stats after remove: %+v", st)
	}
	g.Reset()
	if st := g.Stats(); st.Programs != 0 || st.Keys != 0 || st.Edges != 0 {
		t.Fatalf("stats after reset: %+v", st)
	}
}

const recorderSnapshot = `aut-num: AS1
import: from AS2 accept ANY

as-set: AS-TOP
members: AS1, AS-MID

as-set: AS-MID
members: AS2, AS-LEAF

as-set: AS-LEAF
members: AS3

as-set: AS-CYC-A
members: AS-CYC-B

as-set: AS-CYC-B
members: AS-CYC-A, AS4

route-set: RS-TOP
members: 192.0.2.0/24, RS-INNER, AS-LEAF

route-set: RS-INNER
members: AS5

route: 192.0.2.0/24
origin: AS1
`

func testDB(t *testing.T) *irr.Database {
	t.Helper()
	return irr.New(core.ParseText(recorderSnapshot, "TEST"))
}

func hasKey(keys []depgraph.Key, want depgraph.Key) bool {
	for _, k := range keys {
		if k == want {
			return true
		}
	}
	return false
}

func TestRecorderAsSetClosure(t *testing.T) {
	db := testDB(t)
	rec := depgraph.NewRecorder()
	rec.AsSetMembership(db, "AS-TOP")
	keys := rec.Keys()
	for _, want := range []depgraph.Key{
		depgraph.AsSetKey("AS-TOP"), depgraph.AsSetKey("AS-MID"), depgraph.AsSetKey("AS-LEAF"),
	} {
		if !hasKey(keys, want) {
			t.Errorf("missing %v in %v", want, keys)
		}
	}
	// Membership alone does not pull in member route tables.
	if hasKey(keys, depgraph.RoutesKey(1)) {
		t.Errorf("membership closure recorded a routes key: %v", keys)
	}

	// The table closure adds the route objects of every flat member.
	rec = depgraph.NewRecorder()
	rec.AsSetTable(db, "AS-TOP")
	keys = rec.Keys()
	for _, asn := range []ir.ASN{1, 2, 3} {
		if !hasKey(keys, depgraph.RoutesKey(asn)) {
			t.Errorf("table closure missing routes:AS%d in %v", asn, keys)
		}
	}
}

func TestRecorderCycleAndUnrecorded(t *testing.T) {
	db := testDB(t)
	rec := depgraph.NewRecorder()
	rec.AsSetMembership(db, "AS-CYC-A") // must terminate
	keys := rec.Keys()
	if !hasKey(keys, depgraph.AsSetKey("AS-CYC-B")) {
		t.Errorf("cycle walk missing AS-CYC-B: %v", keys)
	}
	// Unrecorded names are still recorded: a later ADD must invalidate.
	rec = depgraph.NewRecorder()
	rec.AsSetMembership(db, "AS-NOWHERE")
	if !hasKey(rec.Keys(), depgraph.AsSetKey("AS-NOWHERE")) {
		t.Errorf("unrecorded as-set not recorded: %v", rec.Keys())
	}
}

func TestRecorderRouteSetClosure(t *testing.T) {
	db := testDB(t)
	rec := depgraph.NewRecorder()
	rec.RouteSetTable(db, "RS-TOP")
	keys := rec.Keys()
	for _, want := range []depgraph.Key{
		depgraph.RouteSetKey("RS-TOP"),
		depgraph.RouteSetKey("RS-INNER"),
		depgraph.RoutesKey(5),
		// RS-TOP's AS-LEAF member resolves as an as-set (table + closure).
		depgraph.AsSetKey("AS-LEAF"),
		depgraph.RoutesKey(3),
	} {
		if !hasKey(keys, want) {
			t.Errorf("missing %v in %v", want, keys)
		}
	}
	// RS-INNER is reached via RSMemberSet with no as-set of that name:
	// both readings are recorded so a later as-set ADD flips resolution.
	if !hasKey(keys, depgraph.AsSetKey("RS-INNER")) {
		t.Errorf("ambiguous member missing as-set reading: %v", keys)
	}
}

func TestNilRecorderIsNoOp(t *testing.T) {
	var rec *depgraph.Recorder
	db := testDB(t)
	rec.Add(depgraph.AutNumKey(1))
	rec.AsSetMembership(db, "AS-TOP")
	rec.AsSetTable(db, "AS-TOP")
	rec.RouteSetTable(db, "RS-TOP")
	if keys := rec.Keys(); keys != nil {
		t.Fatalf("nil recorder returned keys: %v", keys)
	}
}
