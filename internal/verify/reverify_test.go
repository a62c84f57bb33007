// Unit tests for the incremental re-verification engine. The
// journal-driven differential over generated universes, targeted steps,
// full resyncs and reconciliation among them, is internal/oracle's C5;
// these cover the engine's contract directly: config rejection, evicted
// programs keeping their dependency edges, and the affected-AS listing.
package verify_test

import (
	"fmt"
	"slices"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// custRPSL is a database with one verifiable route, 192.0.2.0/24 over
// [2 1 3]: AS1 exports AS-CUST to AS2 and imports AS3 and AS9.
const custRPSL = `
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
`

var custRoutes = []bgpsim.Route{{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{2, 1, 3}}}

func TestNewIncrementalRejectsConfigs(t *testing.T) {
	db := irr.New(core.ParseText(custRPSL, "TEST"))
	if _, err := verify.NewIncremental(db, asrel.New(), verify.Config{Eval: "interp"}); err == nil {
		t.Error("NewIncremental accepted Eval \"interp\"")
	}
	for _, eval := range []string{"", "compiled"} {
		if _, err := verify.NewIncremental(db, asrel.New(), verify.Config{Eval: eval}); err != nil {
			t.Errorf("NewIncremental rejected Eval %q: %v", eval, err)
		}
		verify.New(db, asrel.New(), verify.Config{Eval: eval})
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted Eval \"interp\"")
		}
	}()
	verify.New(db, asrel.New(), verify.Config{Eval: "interp"})
}

// TestEvictedProgramKeepsItsEdges is the bench's universe-7 drift (32 of
// 398 164 reports wrong after 26 journals) cut down to two steps. Step 1
// invalidates AS1's program through a key whose delta reaches none of
// AS1's routes; step 2 shrinks an as-set AS1 filters on. When eviction
// retracted the program's dependency edges until some dirty route
// happened to recompile it, step 2 found the as-set without dependents,
// dirtied nothing, and AS1's export check stayed verified.
func TestEvictedProgramKeepsItsEdges(t *testing.T) {
	mir := nrtm.NewMirrorDB(irr.New(core.ParseText(custRPSL, "TEST")), nil, nil)
	rels := asrel.New()
	inc, err := verify.NewIncremental(mir.DB(), rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(custRoutes, 1)
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
	fresh := verify.New(mir.DB(), rels, verify.Config{}).VerifyAll(custRoutes, 1)
	assertSameReports(t, inc.Reports(), fresh, custRoutes)
}

// TestReverifyWritesPatchesToFreshMemory: Init's reports share check
// slices, so a step that wrote a dirty report's checks where they lie
// would rewrite its clean neighbours too. A step must leave every
// report it did not dirty as it was, and write the ones it did into
// memory no report held before it.
func TestReverifyWritesPatchesToFreshMemory(t *testing.T) {
	mir := nrtm.NewMirrorDB(irr.New(core.ParseText(custRPSL, "TEST")), nil, nil)
	rels := asrel.New()
	inc, err := verify.NewIncremental(mir.DB(), rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var routes []bgpsim.Route
	for i := range 24 {
		pfx := prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", i))
		if i%4 == 0 {
			pfx = prefix.MustParse("192.0.2.0/24")
		}
		routes = append(routes,
			bgpsim.Route{Prefix: pfx, Path: []ir.ASN{2, 1, 3}},
			bgpsim.Route{Prefix: pfx, Path: []ir.ASN{5, 2, 1, 3}},
			bgpsim.Route{Prefix: pfx, Path: []ir.ASN{2, 1, 9}})
	}
	before := inc.Init(routes, 0)
	old := make(map[*verify.Check]bool)
	rendered := make([]string, len(before))
	checks := 0
	for i, rep := range before {
		rendered[i] = renderReport(rep)
		for k := range rep.Checks {
			old[&rep.Checks[k]] = true
		}
		checks += len(rep.Checks)
	}
	if len(old) >= checks {
		t.Fatalf("Init's reports hold their %d checks in %d slots: no slice is shared", checks, len(old))
	}
	keys, err := mir.ApplyAllKeys([]*nrtm.Journal{{Registry: "TEST", First: 1, Last: 1,
		Ops: []nrtm.Op{{Serial: 1, Action: nrtm.OpAdd, Object: "as-set: AS-CUST\nmembers: AS4\nsource: TEST\n"}}}})
	if err != nil {
		t.Fatal(err)
	}
	res := inc.Reverify(mir.DB(), keys, 0, nil)
	if res.Routes == 0 || res.Routes == len(routes) {
		t.Fatalf("step dirtied %d of %d routes, want some", res.Routes, len(routes))
	}
	after := inc.Reports()
	for i := range after {
		if slices.Contains(res.Dirty, int32(i)) {
			for k := range after[i].Checks {
				if old[&after[i].Checks[k]] {
					t.Fatalf("route %d (%v): patched check %d written where a report before the step held one", i, routes[i].Path, k)
				}
			}
		} else if got := renderReport(after[i]); got != rendered[i] {
			t.Errorf("route %d (%v) was not dirtied but changed:\n%s\nwas:\n%s", i, routes[i].Path, got, rendered[i])
		}
	}
	assertSameReports(t, after, verify.New(mir.DB(), rels, verify.Config{}).VerifyAll(routes, 0), routes)
}

func TestAffectedASes(t *testing.T) {
	inc, err := verify.NewIncremental(irr.New(core.ParseText(custRPSL, "TEST")), asrel.New(), verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(custRoutes, 1)
	if got := inc.AffectedASes([]int32{0}); !slices.Equal(got, []ir.ASN{1, 2, 3}) {
		t.Errorf("affected ASes of the route over [2 1 3] = %v, want [1 2 3]", got)
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

// TestFirstStepTracesIndexBuild holds the dirtying index's build to
// the first step given touched keys, under its own span: a mirror's
// first journal step shows the cost that Init leaves to it, and no
// later step pays it again.
func TestFirstStepTracesIndexBuild(t *testing.T) {
	mir := nrtm.NewMirrorDB(irr.New(core.ParseText(custRPSL, "TEST")), nil, nil)
	inc, err := verify.NewIncremental(mir.DB(), asrel.New(), verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(custRoutes, 1)
	tr := trace.New(trace.Config{})
	for serial, want := range []bool{true, false} {
		keys, err := mir.ApplyAllKeys([]*nrtm.Journal{{Registry: "TEST", First: uint64(serial + 1), Last: uint64(serial + 1),
			Ops: []nrtm.Op{{Serial: uint64(serial + 1), Action: nrtm.OpAdd, Object: fmt.Sprintf("route: 203.0.11%d.0/24\norigin: AS9\nsource: TEST\n", serial)}}}})
		if err != nil {
			t.Fatal(err)
		}
		root := tr.Start("mirror", "step")
		inc.Reverify(mir.DB(), keys, 1, root)
		root.End()
		names := map[uint32]string{}
		parentOf := map[string]string{}
		for _, sp := range tr.Recent()[0].Export().Spans {
			names[sp.ID] = sp.Name
			parentOf[sp.Name] = names[sp.Parent]
		}
		if got, ok := parentOf["index-routes"]; ok != want || (ok && got != "invalidate") {
			t.Errorf("step %d: index-routes span present %v under %q, want present %v under \"invalidate\"", serial+1, ok, got, want)
		}
	}
}
