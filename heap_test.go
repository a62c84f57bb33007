package rpslyzer

import (
	"runtime"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/verify"
)

// retainedBy runs build between two collections and returns the heap
// the value it built holds onto, in bytes, and what building it
// allocated. What a structure retains does not depend on when the
// collector ran, so the figures repeat from run to run and can carry a
// ceiling. The caller keeps the built value reachable until retainedBy
// returns, then KeepAlives it.
func retainedBy(build func()) (live, allocated float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc), float64(after.TotalAlloc - before.TotalAlloc)
}

// TestRetainedHeapCeilings holds the three structures that scale with
// the corpus to bytes-per-route ceilings, each about 20% over what it
// measures on the 800-AS fixture: the IR the default loader retains
// (329 B per route object), the reports of a bulk sweep (439 B per
// route — 614 when every check carried its own copy of its reason
// list), and the frozen report snapshot (454 B per route, allocating
// 1.13x what it retains — 1.33x when the per-AS lists grew by
// doubling, 4.8x when every arena did).
func TestRetainedHeapCeilings(t *testing.T) {
	f := getFixture(t)
	check := func(t *testing.T, what string, got, ceiling float64) {
		t.Helper()
		t.Logf("%s: %.3g (ceiling %g)", what, got, ceiling)
		if got > ceiling {
			t.Errorf("%s = %.3g, over its ceiling of %g", what, got, ceiling)
		}
	}
	t.Run("ingest", func(t *testing.T) {
		dir := t.TempDir()
		if err := core.WriteUniverse(f.sys, nil, dir); err != nil {
			t.Fatal(err)
		}
		var x *ir.IR
		live, _ := retainedBy(func() {
			var err error
			if x, _, err = core.LoadDumpDir(dir); err != nil {
				t.Fatal(err)
			}
		})
		check(t, "live B/route object", live/float64(len(x.Routes)), 400)
		runtime.KeepAlive(x)
	})
	t.Run("sweep", func(t *testing.T) {
		v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
		v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0) // compile outside the fences
		var reports []verify.RouteReport
		live, _ := retainedBy(func() { reports = v.VerifyAll(f.routes, 0) })
		check(t, "live B/route", live/float64(len(reports)), 530)
		runtime.KeepAlive(reports)
	})
	t.Run("freeze", func(t *testing.T) {
		var snap *reportstore.Snapshot
		live, allocated := retainedBy(func() { snap = reportstore.BuildSnapshot(f.reports) })
		check(t, "live B/route", live/float64(snap.NumRoutes()), 545)
		check(t, "allocated/retained", allocated/live, 1.25)
		runtime.KeepAlive(snap)
	})
}

// mallocsBy runs build between two collections and returns how many
// heap objects it allocated. Like retainedBy's bytes, the count is a
// property of the code and its input, not of the host or of when the
// collector ran.
func mallocsBy(build func()) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// TestIngestAllocationBudget holds ingest to allocation counts, each
// ceiling about 20% over what it measures on the 800-AS fixture: 14.6
// heap objects per RPSL object for the default loader (23.8 when every
// line was a string, every attribute list grew by doubling and every
// chunk was copied twice) and 2.7 per route object for the index (13.8
// when the route trie was built by path-copying insertion).
func TestIngestAllocationBudget(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	if err := core.WriteUniverse(f.sys, nil, dir); err != nil {
		t.Fatal(err)
	}
	check := func(what string, got, ceiling float64) {
		t.Helper()
		t.Logf("%s: %.3g (ceiling %g)", what, got, ceiling)
		if got > ceiling {
			t.Errorf("%s = %.3g, over its ceiling of %g", what, got, ceiling)
		}
	}
	var x *ir.IR
	mallocs := mallocsBy(func() {
		var err error
		if x, _, err = core.LoadDumpDir(dir); err != nil {
			t.Fatal(err)
		}
	})
	objects := 0
	for _, byClass := range x.Counts {
		for _, n := range byClass {
			objects += n
		}
	}
	check("LoadDumpDir mallocs/RPSL object", mallocs/float64(objects), 17.5)
	var db *irr.Database
	mallocs = mallocsBy(func() { db = irr.NewSharded(x, 2) })
	check("NewSharded mallocs/route object", mallocs/float64(len(x.Routes)), 3.2)
	runtime.KeepAlive(db)
}

// TestIRDoesNotPinDumpText loads the fixture's dumps, keeps one aut-num
// and one route object and drops the rest of the IR. If anything in
// either still pointed into the text it was parsed from, a 256 KiB
// chunk per pointer would stay behind.
func TestIRDoesNotPinDumpText(t *testing.T) {
	f := getFixture(t)
	dir := t.TempDir()
	if err := core.WriteUniverse(f.sys, nil, dir); err != nil {
		t.Fatal(err)
	}
	var (
		an *ir.AutNum
		ro *ir.RouteObject
	)
	live, _ := retainedBy(func() {
		x, _, err := core.LoadDumpDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, asn := range x.SortedAutNums() {
			if c := x.AutNums[asn]; an == nil || len(c.Imports)+len(c.Exports) > len(an.Imports)+len(an.Exports) {
				an = c
			}
		}
		ro = x.Routes[len(x.Routes)/2]
	})
	t.Logf("one aut-num (%d rules) and one route object retain %.0f B", len(an.Imports)+len(an.Exports), live)
	if live > 64<<10 {
		t.Errorf("one aut-num and one route object retain %.0f B, over 64 KiB: they pin dump text", live)
	}
	runtime.KeepAlive(an)
	runtime.KeepAlive(ro)
}
