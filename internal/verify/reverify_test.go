// Unit tests for the incremental re-verification engine. The e2e
// journal-driven differential lives at the repo root
// (reverify_e2e_test.go); these cover the engine's contract directly:
// config rejection, targeted invalidation matching a from-scratch
// verification, evicted programs keeping their dependency edges, and
// clean reconciliation.
package verify_test

import (
	"slices"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/verify"
)

func TestNewIncrementalRejectsConfigs(t *testing.T) {
	sys, _ := diffCorpus(t)
	if _, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{Eval: "interp"}); err == nil {
		t.Error("interp engine accepted")
	}
	if _, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// pickPolicyAS finds an AS that appears on some route path and has an
// aut-num with import rules — stripping those rules must flip checks.
func pickPolicyAS(t *testing.T) ir.ASN {
	t.Helper()
	sys, routes := diffCorpus(t)
	for _, r := range routes {
		if r.HasASSet || len(r.Path) <= 1 {
			continue
		}
		for _, asn := range r.Path {
			if an, ok := sys.DB.AutNum(asn); ok && len(an.Imports) > 0 {
				return asn
			}
		}
	}
	t.Fatal("no path AS with import rules in the synthetic corpus")
	return 0
}

func TestReverifyTargetedMatchesFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus incremental test")
	}
	sys, routes := diffCorpus(t)
	target := pickPolicyAS(t)

	inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes, 0)

	// Strip the target's import rules on a cloned snapshot; every other
	// object keeps its pointer, like an NRTM apply.
	db2 := sys.DB.Clone()
	old := db2.IR.AutNums[target]
	changed := *old
	changed.Imports = nil
	db2.IR.AutNums[target] = &changed

	res := inc.Reverify(db2, []depgraph.Key{depgraph.AutNumKey(target)}, 0, nil)
	if res.Full {
		t.Fatal("targeted reverify reported a full pass")
	}
	if res.Routes == 0 {
		t.Fatal("no routes re-verified for an AS that appears on paths")
	}
	if res.Routes == len(routes) {
		t.Fatal("targeted reverify dirtied the whole corpus")
	}
	found := false
	for _, asn := range res.Programs {
		if asn == target {
			found = true
		}
	}
	if !found {
		t.Errorf("target AS%d not among invalidated programs %v", uint32(target), res.Programs)
	}

	fresh := verify.New(db2, sys.Rels, verify.Config{}).VerifyAll(routes, 0)
	assertSameReports(t, inc.Reports(), fresh, routes)

	// Reconciliation against the same database must find zero drift.
	rec := inc.Reconcile(0)
	if rec.Drift != 0 {
		t.Fatalf("reconcile drift %d of %d routes", rec.Drift, rec.Routes)
	}
}

func TestReverifyNilTouchedIsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus incremental test")
	}
	sys, routes := diffCorpus(t)
	inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes, 0)
	res := inc.Reverify(sys.DB, nil, 0, nil)
	if !res.Full || res.Routes != len(routes) {
		t.Fatalf("nil touched: got %+v, want full pass over %d routes", res, len(routes))
	}
	fresh := verify.New(sys.DB, sys.Rels, verify.Config{}).VerifyAll(routes, 0)
	assertSameReports(t, inc.Reports(), fresh, routes)
}

// TestEvictedProgramKeepsItsEdges is the bench's universe-7 drift (32 of
// 398 164 reports wrong after 26 journals) cut down to two steps. Step 1
// invalidates AS1's program through a key whose delta reaches none of
// AS1's routes; step 2 shrinks an as-set AS1 filters on. When eviction
// retracted the program's dependency edges until some dirty route
// happened to recompile it, step 2 found the as-set without dependents,
// dirtied nothing, and AS1's export check stayed verified.
func TestEvictedProgramKeepsItsEdges(t *testing.T) {
	x := core.ParseText(`
aut-num: AS1
import: from AS3 accept AS3
import: from AS9 accept AS9
export: to AS2 announce AS-CUST

as-set: AS-CUST
members: AS3, AS4

route: 192.0.2.0/24
origin: AS3

route: 198.51.100.0/24
origin: AS9
`, "TEST")
	mir := nrtm.NewMirror(x, nil, nil)
	rels := asrel.New()
	routes := []bgpsim.Route{{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{2, 1, 3}}}
	inc, err := verify.NewIncremental(mir.DB(), rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes, 1)
	exportOf := func() verify.Status {
		for _, c := range inc.Reports()[0].Checks {
			if c.From == 1 && c.To == 2 && c.Dir == ir.DirExport {
				return c.Status
			}
		}
		t.Fatalf("no AS1->AS2 export check in %v", inc.Reports()[0].Checks)
		return 0
	}
	if st := exportOf(); st != verify.Verified {
		t.Fatalf("AS1 export before the journals: %v, want verified", st)
	}
	step := func(serial uint64, object string) verify.ReverifyResult {
		t.Helper()
		keys, err := mir.ApplyAllKeys([]*nrtm.Journal{{Registry: "TEST", First: serial, Last: serial,
			Ops: []nrtm.Op{{Serial: serial, Action: nrtm.OpAdd, Object: object}}}})
		if err != nil {
			t.Fatal(err)
		}
		return inc.Reverify(mir.DB(), keys, 1, nil)
	}

	res := step(1, "route: 203.0.113.0/24\norigin: AS9\nsource: TEST\n")
	if !slices.Contains(res.Programs, ir.ASN(1)) || res.Routes != 0 {
		t.Fatalf("step 1: invalidated %v and dirtied %d routes, want AS1 invalidated and no route dirty", res.Programs, res.Routes)
	}
	res = step(2, "as-set: AS-CUST\nmembers: AS4\nsource: TEST\n")
	if res.Routes != 1 {
		t.Errorf("step 2: %d routes dirty, want the one AS1 exports", res.Routes)
	}
	if st := exportOf(); st == verify.Verified {
		t.Errorf("AS1 export still verified after AS3 left AS-CUST")
	}
	fresh := verify.New(mir.DB(), rels, verify.Config{}).VerifyAll(routes, 1)
	assertSameReports(t, inc.Reports(), fresh, routes)
}

func TestAffectedASes(t *testing.T) {
	sys, routes := diffCorpus(t)
	inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var idx int32 = -1
	for i, r := range routes {
		if !r.HasASSet && len(r.Path) > 1 {
			idx = int32(i)
			break
		}
	}
	if idx < 0 {
		t.Skip("no verifiable route")
	}
	inc.Init(routes, 0)
	ases := inc.AffectedASes([]int32{idx})
	if len(ases) == 0 {
		t.Fatal("no affected ASes for a verifiable route")
	}
	for _, asn := range routes[idx].Path {
		found := false
		for _, a := range ases {
			if a == asn {
				found = true
			}
		}
		if !found {
			t.Errorf("path AS%d missing from affected set %v", uint32(asn), ases)
		}
	}
}

func assertSameReports(t *testing.T, got, want []verify.RouteReport, routes []bgpsim.Route) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("report counts differ: %d vs %d", len(got), len(want))
	}
	mismatches := 0
	for i := range got {
		g, w := renderReport(got[i]), renderReport(want[i])
		if g != w {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("route %s path %v:\nincremental:\n%s\nfresh:\n%s",
					routes[i].Prefix, routes[i].Path, g, w)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d reports differ", mismatches, len(got))
	}
}
