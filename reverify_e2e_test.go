// End-to-end contract of the incremental re-verification engine: a
// reportd-style pipeline — evolve the registry universe, export NRTM
// journals, apply them to a mirror, Reverify with the apply's touched
// keys — must produce byte-identical JSONL reports to a from-scratch
// VerifyAll against the same snapshot, after every one of 20+ steps.
// A second test races API reads against the apply/reverify/swap loop
// (meaningful under -race, which scripts/verify.sh runs).
package rpslyzer

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/verify"
)

const reverifySteps = 21

func reportsJSONL(t *testing.T, reports []verify.RouteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSONL(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestIncrementalReverifyMatchesFullOverJournals(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step e2e differential")
	}
	for _, tc := range []struct {
		name                   string
		seed                   int64
		ases, collectors, step int
		churn                  float64
		// perRegistry applies each registry's journal as its own step, in
		// file-name order, the way nrtm.Poll does; otherwise a step is one
		// batch of every registry's journal.
		perRegistry bool
	}{
		{name: "seed11-250as", seed: 11, ases: 250, collectors: 4, step: reverifySteps, churn: 0.02},
		// bench/'s corpus-2k at universe 7, the only universe on which
		// incremental and full ever disagreed (32 of 398 164 routes after
		// journal 26): a program evicted by journal 16 through a key that
		// dirtied none of its routes had lost its dependency edges by the
		// time journal 26 shrank an as-set it filters on.
		{name: "seed7-2000as", seed: 7, ases: 2000, collectors: 8, step: 2, churn: 0.01, perRegistry: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := core.BuildSynthetic(core.Options{Seed: tc.seed, ASes: tc.ases, Collectors: tc.collectors})
			if err != nil {
				t.Fatal(err)
			}
			routes := sys.CollectRoutes(tc.collectors, tc.seed)
			if len(routes) == 0 {
				t.Fatal("no routes collected")
			}

			mir := nrtm.NewMirrorDB(sys.DB, nil, nil)
			inc, err := verify.NewIncremental(mir.DB(), sys.Rels, verify.Config{})
			if err != nil {
				t.Fatal(err)
			}
			inc.Init(routes, 0)

			cfg := irrgen.EvolveConfig{Seed: tc.seed, PolicyChurnFrac: tc.churn, SetChurnFrac: tc.churn,
				RouteAddFrac: tc.churn / 2, RouteWithdrawFrac: tc.churn / 2}
			serials := make(map[string]uint64)
			prev := sys.IR
			sawPartial := false
			for step := 1; step <= tc.step; step++ {
				next := irrgen.Evolve(prev, step, cfg)
				diff := evolve.Compare(prev, next)
				if diff.Empty() {
					t.Fatalf("step %d: evolution produced no changes", step)
				}
				journals := diff.ToJournals(prev, next, serials)
				batches := [][]*nrtm.Journal{journals}
				if tc.perRegistry {
					batches = nil
					for _, j := range journals {
						batches = append(batches, []*nrtm.Journal{j})
					}
				}
				var res verify.ReverifyResult
				for _, batch := range batches {
					keys, err := mir.ApplyAllKeys(batch)
					if err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
					res = inc.Reverify(mir.DB(), keys, 0, nil)
					if res.Full {
						t.Fatalf("step %d: incremental step fell back to full", step)
					}
					if res.Routes > 0 && res.Routes < len(routes) {
						sawPartial = true
					}
				}

				fresh := verify.New(mir.DB(), sys.Rels, verify.Config{}).VerifyAll(routes, 0)
				// Rendered a slice at a time: the 2 000-AS corpus is half a
				// gigabyte of JSONL per side.
				const chunk = 1 << 14
				for lo := 0; lo < len(routes); lo += chunk {
					hi := min(lo+chunk, len(routes))
					got, want := reportsJSONL(t, inc.Reports()[lo:hi]), reportsJSONL(t, fresh[lo:hi])
					if !bytes.Equal(got, want) {
						t.Fatalf("step %d (last apply: %d keys, %d programs, %d routes re-verified): incremental JSONL diverged from full verification in routes [%d,%d)\n%s",
							step, res.TouchedKeys, len(res.Programs), res.Routes, lo, hi, firstJSONLDiff(got, want))
					}
				}
				prev = next
			}
			if !sawPartial {
				t.Error("no step re-verified a strict subset of routes; incremental path never exercised")
			}
		})
	}
}

// TestReconcileMatchesFreshAtAnyShardCount pins the reconciliation
// safety net: after a run of incremental steps, Reconcile re-verifies
// from scratch through the bulk driver, so every partition must see the
// invalidations the steps made. Per-shard program caches that the
// engine did not evict once made it adopt stale reports at Shards > 1.
func TestReconcileMatchesFreshAtAnyShardCount(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-step e2e differential")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			sys, err := core.BuildSynthetic(core.Options{Seed: 11, ASes: 250, Collectors: 4})
			if err != nil {
				t.Fatal(err)
			}
			routes := sys.CollectRoutes(4, 11)
			vcfg := verify.Config{Shards: shards}
			mir := nrtm.NewMirrorDB(sys.DB, nil, nil)
			inc, err := verify.NewIncremental(mir.DB(), sys.Rels, vcfg)
			if err != nil {
				t.Fatal(err)
			}
			inc.Init(routes, 0)

			cfg := irrgen.EvolveConfig{Seed: 11, PolicyChurnFrac: 0.02, SetChurnFrac: 0.02,
				RouteAddFrac: 0.01, RouteWithdrawFrac: 0.01}
			serials := make(map[string]uint64)
			prev := sys.IR
			for step := 1; step <= 8; step++ {
				next := irrgen.Evolve(prev, step, cfg)
				keys, err := mir.ApplyAllKeys(evolve.Compare(prev, next).ToJournals(prev, next, serials))
				if err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
				inc.Reverify(mir.DB(), keys, 0, nil)
				prev = next
			}

			if rec := inc.Reconcile(0); rec.Drift != 0 {
				t.Errorf("reconcile drift %d of %d routes", rec.Drift, rec.Routes)
			}
			fresh := verify.New(mir.DB(), sys.Rels, vcfg).VerifyAll(routes, 0)
			got, want := reportsJSONL(t, inc.Reports()), reportsJSONL(t, fresh)
			if !bytes.Equal(got, want) {
				t.Fatalf("reconciled JSONL diverged from a fresh verification\n%s", firstJSONLDiff(got, want))
			}
		})
	}
}

func firstJSONLDiff(got, want []byte) string {
	g := bytes.Split(got, []byte("\n"))
	w := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) && i < len(w); i++ {
		if !bytes.Equal(g[i], w[i]) {
			return fmt.Sprintf("line %d:\n  incremental: %s\n  full:        %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("incremental has %d lines, full has %d", len(g), len(w))
}

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
