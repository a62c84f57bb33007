package rpslyzer

import (
	"runtime"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
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
// (329 B per route object), the reports of a bulk sweep (614 B per
// route), and the frozen report snapshot (462 B per route, allocating
// 1.33x what it retains — 4.8x when every arena grew by doubling).
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
		check(t, "live B/route", live/float64(len(reports)), 770)
		runtime.KeepAlive(reports)
	})
	t.Run("freeze", func(t *testing.T) {
		var snap *reportstore.Snapshot
		live, allocated := retainedBy(func() { snap = reportstore.BuildSnapshot(f.reports) })
		check(t, "live B/route", live/float64(snap.NumRoutes()), 555)
		check(t, "allocated/retained", allocated/live, 1.5)
		runtime.KeepAlive(snap)
	})
}
