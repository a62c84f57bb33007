// End-to-end test of the incremental re-verification engine in a
// reportd-style pipeline — evolve the registry universe, export NRTM
// journals, apply them to a mirror, Reverify with the apply's touched
// keys — racing API reads against the apply/reverify/swap loop
// (meaningful under -race, which scripts/verify.sh runs). Incremental ≡
// full after every step, and Reconcile ≡ a fresh sweep, are
// internal/oracle's C5, on every generated draw.
package rpslyzer

import (
	"net/http/httptest"
	"sync"
	"testing"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/verify"
)

// TestConcurrentReverifyAndAPIReads drives the reportd publication
// pattern under the race detector: the engine patches its reports and
// swaps immutable snapshots while API readers hammer the store. The
// invariant is that readers only ever touch the snapshot copies, never
// the engine's mutable state.
func TestConcurrentReverifyAndAPIReads(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency e2e")
	}
	sys, err := core.BuildSynthetic(core.Options{Seed: 13, ASes: 150, Collectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(3, 13)

	mir := nrtm.NewMirrorDB(sys.DB, nil, nil)
	inc, err := verify.NewIncremental(mir.DB(), sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes, 0)

	store := reportstore.New(nil)
	store.Swap(reportstore.BuildSnapshot(inc.Reports()))
	srv := api.NewServer(store, api.Config{}, nil)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			paths := []string{"/v1/summary", "/v1/reports?status=unverified", "/healthz"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", paths[i%len(paths)], nil))
				if rec.Code >= 500 {
					t.Errorf("API returned %d", rec.Code)
					return
				}
			}
		}()
	}

	cfg := irrgen.EvolveConfig{Seed: 13, PolicyChurnFrac: 0.02, SetChurnFrac: 0.02,
		RouteAddFrac: 0.01, RouteWithdrawFrac: 0.01}
	serials := make(map[string]uint64)
	prev := sys.IR
	for step := 1; step <= 6; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		keys, err := mir.ApplyAllKeys(evolve.Compare(prev, next).ToJournals(prev, next, serials))
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		inc.Reverify(mir.DB(), keys, 2, nil)
		store.Swap(reportstore.BuildSnapshot(inc.Reports()))
		prev = next
	}
	close(stop)
	readers.Wait()
	if store.Swaps() < 7 {
		t.Fatalf("expected 7 swaps, got %d", store.Swaps())
	}
}
