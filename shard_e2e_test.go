// System-level tests of the sharded core. Byte identity at any shard
// count is internal/oracle's C4 and C7, and incremental ≡ full is its
// C5, on every generated draw; here whois and API readers race
// per-shard journal application through the engine's Step (meaningful
// under -race, which scripts/verify.sh runs), and the origin-hash
// imbalance on the corpus is held under 2x.
package rpslyzer

import (
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
	"rpslyzer/internal/whois"
)

// whoisQueries assembles a query sweep covering every server code
// path: aut-num renders, inverse-origin walks, per-origin route
// tables (!g), set renders and flattened membership (!i,1), and
// prefix searches in all four irrd modes plus plain coverage lookups.
func whoisQueries(x *ir.IR) []string {
	var qs []string
	var asns []ir.ASN
	for asn := range x.AutNums {
		asns = append(asns, asn)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	for _, asn := range asns {
		qs = append(qs,
			fmt.Sprintf("AS%d", uint32(asn)),
			fmt.Sprintf("-i origin AS%d", uint32(asn)),
			fmt.Sprintf("!gAS%d", uint32(asn)),
		)
	}
	var sets []string
	for name := range x.AsSets {
		sets = append(sets, name)
	}
	sort.Strings(sets)
	if len(sets) > 50 {
		sets = sets[:50]
	}
	for _, name := range sets {
		qs = append(qs, name, "!i"+name+",1")
	}
	seen := make(map[string]bool)
	for _, r := range x.Routes {
		p := r.Prefix.String()
		if seen[p] || len(seen) >= 200 {
			continue
		}
		seen[p] = true
		qs = append(qs, p, "!r"+p, "!r"+p+",o", "!r"+p+",L", "!r"+p+",M")
	}
	return qs
}

// TestConcurrentShardedJournalApplyDuringAPIReads races the reportd
// publication path: journals apply to the mirror (route index
// updates), daemon.Engine's Step re-verifies with the partitioned
// drivers and swaps each snapshot in, and
// the whois server answers from the mirror's newest database — all
// while whois and API readers hammer the old snapshots. Readers may only ever touch the published copies,
// never the engine's mutable state.
func TestConcurrentShardedJournalApplyDuringAPIReads(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency e2e")
	}
	sys, err := core.BuildSynthetic(core.Options{Seed: 23, ASes: 150, Collectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	db := irr.NewSharded(sys.IR, 4)
	p := &daemon.Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Registry: telemetry.NewRegistry("shard_e2e")}
	e := daemon.NewEngine(p, nil)
	if err := e.BootCorpus(db, sys.Rels, sys.CollectRoutes(3, 23), verify.Config{Shards: 4}, true); err != nil {
		t.Fatal(err)
	}
	mir := nrtm.NewMirrorDB(db, nil, nil)
	apiSrv := api.NewServer(e.Store(), api.Config{}, nil)
	whoisSrv := &whois.Server{Mirror: mir}
	whoisQ := whoisQueries(sys.IR)

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
				apiSrv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", paths[i%len(paths)], nil))
				if rec.Code >= 500 {
					t.Errorf("API returned %d", rec.Code)
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if resp := whoisSrv.Query(whoisQ[i%len(whoisQ)]); resp == "" {
				t.Error("whois returned empty response")
				return
			}
		}
	}()

	cfg := irrgen.EvolveConfig{Seed: 23, PolicyChurnFrac: 0.02, SetChurnFrac: 0.02,
		RouteAddFrac: 0.01, RouteWithdrawFrac: 0.01}
	serials := make(map[string]uint64)
	prev := sys.IR
	for step := 1; step <= 6; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		keys, err := mir.ApplyAllKeys(evolve.Compare(prev, next).ToJournals(prev, next, serials))
		if err != nil {
			t.Fatalf("step %d: apply: %v", step, err)
		}
		e.Step(mir.DB(), keys, nil)
		prev = next
	}
	close(stop)
	readers.Wait()
	if n := e.Store().Swaps(); n < 7 {
		t.Fatalf("expected 7 swaps, got %d", n)
	}
}

// TestShardImbalanceBounded is the load-balance smoke scripts/verify.sh
// relies on: the splitmix64 origin hash must spread the synthetic
// corpus's route objects across shards with a peak-to-mean ratio of at
// most 2x at every shard count the tools default to.
func TestShardImbalanceBounded(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 19, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	origins := make([]ir.ASN, 0, len(sys.IR.Routes))
	for _, r := range sys.IR.Routes {
		origins = append(origins, r.Origin)
	}
	for _, n := range []int{2, 4, 8, 16} {
		counts := shard.Counts(origins, n)
		if imb := shard.Imbalance(counts); imb > 2.0 {
			t.Errorf("%d shards: imbalance %.2f > 2.0 (counts %v)", n, imb, counts)
		}
	}
}
