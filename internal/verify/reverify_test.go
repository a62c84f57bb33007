// Unit tests for the incremental re-verification engine. The e2e
// journal-driven differential lives at the repo root
// (reverify_e2e_test.go); these cover the engine's contract directly:
// config rejection, targeted invalidation matching a from-scratch
// verification, corpus swaps, and clean reconciliation.
package verify_test

import (
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
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

func TestSetRoutesSwapsCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus incremental test")
	}
	sys, routes := diffCorpus(t)
	if len(routes) < 10 {
		t.Fatalf("corpus too small: %d routes", len(routes))
	}
	inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes[:len(routes)/2], 0)

	// The new corpus keeps the first quarter, drops the rest of the old
	// half, and adds the second half as fresh routes.
	next := append(append([]bgpsim.Route{}, routes[:len(routes)/4]...), routes[len(routes)/2:]...)
	delta := inc.SetRoutes(next, 0)
	if delta.Reused == 0 || delta.Verified == 0 || delta.Dropped == 0 {
		t.Fatalf("expected all three delta classes, got %+v", delta)
	}
	fresh := verify.New(sys.DB, sys.Rels, verify.Config{}).VerifyAll(next, 0)
	assertSameReports(t, inc.Reports(), fresh, next)
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
