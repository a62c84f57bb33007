// Differential tests for the bulk drivers: VerifyAll and VerifyStream
// must produce byte-identical reports at any partition count over the
// full synthetic corpus — same checks, same reason order, same JSONL —
// and the same reports as the memo-free single-route path.
package verify_test

import (
	"bytes"
	"sync"
	"testing"

	"rpslyzer/internal/report"
	"rpslyzer/internal/verify"
)

// diffShards holds VerifyAll and VerifyStream at each of the given
// shard counts to the Shards: 1 run, which is computed and rendered
// once.
func diffShards(t *testing.T, cfg verify.Config, shardCounts ...int) {
	sys, routes := diffCorpus(t)

	cfg.Shards = 1
	want := verify.New(sys.DB, sys.Rels, cfg).VerifyAll(routes, 0)
	wantRendered := make([]string, len(want))
	for i := range want {
		wantRendered[i] = renderReport(want[i])
	}
	var wantJSON bytes.Buffer
	if err := report.WriteJSONL(&wantJSON, want); err != nil {
		t.Fatal(err)
	}

	for _, shards := range shardCounts {
		cfg.Shards = shards
		sharded := verify.New(sys.DB, sys.Rels, cfg)
		got := sharded.VerifyAll(routes, 0)
		if len(got) != len(want) {
			t.Fatalf("report counts differ: shards=%d %d, shards=1 %d", shards, len(got), len(want))
		}
		mismatches := 0
		for i := range got {
			if g := renderReport(got[i]); g != wantRendered[i] {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("route %s path %v:\nshards=%d:\n%s\nshards=1:\n%s",
						routes[i].Prefix, routes[i].Path, shards, g, wantRendered[i])
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("%d/%d reports differ between shards=%d and shards=1", mismatches, len(got), shards)
		}

		// The JSONL export (what cmd/verify -json and the report store
		// consume) must match byte for byte.
		var gotJSON bytes.Buffer
		if err := report.WriteJSONL(&gotJSON, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantJSON.Bytes(), gotJSON.Bytes()) {
			t.Fatalf("JSONL differs between shards=%d and shards=1", shards)
		}

		// VerifyStream delivers the same set of reports (arbitrary order).
		var mu sync.Mutex
		seen := make(map[string]int)
		verify.New(sys.DB, sys.Rels, cfg).VerifyStream(routes, 0, func(rep verify.RouteReport) {
			mu.Lock()
			seen[rep.Route.Prefix.String()+"|"+renderReport(rep)]++
			mu.Unlock()
		})
		for i, rep := range want {
			key := rep.Route.Prefix.String() + "|" + wantRendered[i]
			if seen[key] == 0 {
				t.Fatalf("VerifyStream shards=%d missing report for %s", shards, rep.Route.Prefix)
			}
			seen[key]--
		}
		for key, nleft := range seen {
			if nleft != 0 {
				t.Fatalf("VerifyStream shards=%d produced %d extra reports for %q", shards, nleft, key)
			}
		}
	}
}

func TestShardedMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential test")
	}
	diffShards(t, verify.Config{}, 2, 4, 7, 8)
}

func TestShardedMatchesUnshardedStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential test")
	}
	diffShards(t, verify.Config{Strict: true}, 3)
}

// TestVerifyRouteMatchesVerifyAll is the memo-free oracle: every bulk
// run serves repeated (prefix, communities, path-suffix) pairs from the
// pair memo, so comparing bulk runs with each other cannot show the
// memo unsound. VerifyRoute evaluates every check of every route.
func TestVerifyRouteMatchesVerifyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential test")
	}
	sys, routes := diffCorpus(t)
	v := verify.New(sys.DB, sys.Rels, verify.Config{})
	want := make([]string, len(routes))
	for i := range routes {
		want[i] = renderReport(v.VerifyRoute(routes[i]))
	}
	for _, n := range []int{1, 4} {
		got := verify.New(sys.DB, sys.Rels, verify.Config{}).VerifyAll(routes, n)
		mismatches := 0
		for i := range got {
			if g := renderReport(got[i]); g != want[i] {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("route %s path %v:\nVerifyAll(%d):\n%s\nVerifyRoute:\n%s",
						routes[i].Prefix, routes[i].Path, n, g, want[i])
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("%d/%d reports differ between VerifyAll(routes, %d) and VerifyRoute", mismatches, len(got), n)
		}
	}
}
