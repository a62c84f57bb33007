package rpslyzer

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
	"rpslyzer/internal/whois"
)

// parseProm parses Prometheus text exposition into a map keyed by the
// full sample name including labels (e.g. `foo_bucket{le="+Inf"}`).
func parseProm(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// pairMemoWork counts the AS pairs one bulk pass over routes walks, and
// how many of them repeat the (prefix, communities, path suffix) of an
// earlier pair. Equal keys share an origin and therefore a partition,
// so a pass serves exactly the repeats from its memo at any partition
// count.
func pairMemoWork(routes []bgpsim.Route) (pairs, repeats int) {
	seen := make(map[string]struct{})
	for _, r := range routes {
		if r.HasASSet {
			continue
		}
		var path []ir.ASN
		for i, a := range r.Path {
			if i == 0 || a != r.Path[i-1] {
				path = append(path, a)
			}
		}
		for i := len(path) - 2; i >= 0; i-- {
			pairs++
			key := fmt.Sprint(r.Prefix, r.Communities, path[i:])
			if _, ok := seen[key]; ok {
				repeats++
			}
			seen[key] = struct{}{}
		}
	}
	return pairs, repeats
}

// TestTelemetryEndToEnd drives the full observability path: load dumps
// through the instrumented pipeline, serve and query them over whois,
// verify the routes in two bulk passes, freeze and publish the reports
// three times, then scrape /metrics over HTTP and check the scraped
// counters match the work performed.
func TestTelemetryEndToEnd(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 7, ASes: 300})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteUniverse(sys, nil, dir); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry("e2e")

	// Stage 1: ingestion through the instrumented pipeline.
	pm := parser.NewPipelineMetrics(reg)
	x, _, err := core.LoadDumpDirOpts(dir, core.LoadOptions{Workers: 4, Stats: &parser.LoadStats{Metrics: pm}})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth for the pipeline counters, from the IR itself: every
	// object the readers saw is counted by class, every error kept.
	objects := 0
	for _, classes := range x.Counts {
		for _, n := range classes {
			objects += n
		}
	}

	// Stage 2: whois server answering real TCP queries.
	srv := whois.NewServer(irr.New(x))
	srv.Metrics = whois.NewMetrics(reg)
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	autnums := x.SortedAutNums()
	if len(autnums) < 10 {
		t.Fatalf("universe too small: %d aut-nums", len(autnums))
	}
	queries := 0
	for _, asn := range autnums[:10] {
		resp, err := whois.QueryServer(srv.Addr().String(), asn.String())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, "aut-num:") {
			t.Fatalf("query %s: bad response %q", asn, resp)
		}
		queries++
	}

	// Stage 3: two bulk verification passes, each with its own pair memo.
	_, verifier := core.BuildFromIR(x, sys.Rels, verify.Config{})
	verifier.SetMetrics(verify.NewMetrics(reg))
	routes := sys.CollectRoutes(4, 7)
	if len(routes) == 0 {
		t.Fatal("no routes collected")
	}
	verifier.VerifyAll(routes, 4)
	reports := verifier.VerifyAll(routes, 4)

	// Stage 4: the report store, frozen both ways reportd freezes it —
	// from a retained report slice, as every -mirror journal does, and
	// behind a streaming Builder — and published. The freezes are timed
	// from outside to bound what the store's own histogram may hold.
	store := reportstore.New(reportstore.NewMetrics(reg))
	var freezing time.Duration
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		snap := reportstore.BuildSnapshot(reports)
		freezing += time.Since(t0)
		store.Swap(snap)
	}
	sb := reportstore.NewBuilder()
	for _, rep := range reports {
		sb.Add(rep)
	}
	t0 := time.Now()
	snap := sb.Build()
	freezing += time.Since(t0)
	store.Swap(snap)

	// Scrape over HTTP and cross-check against the work performed.
	ms, err := telemetry.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr().String()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	samples := parseProm(t, body)

	// Pipeline counters match the IR's own totals; every chunk the
	// splitter emitted was parsed and timed.
	if got := samples["rpslyzer_pipeline_objects_parsed_total"]; got != float64(objects) {
		t.Errorf("objects_parsed_total = %g, want %d (IR class counts)", got, objects)
	}
	chunks := samples["rpslyzer_pipeline_chunks_split_total"]
	if chunks == 0 || samples["rpslyzer_pipeline_chunks_parsed_total"] != chunks {
		t.Errorf("chunks split = %g, parsed = %g", chunks, samples["rpslyzer_pipeline_chunks_parsed_total"])
	}
	if got := samples[`rpslyzer_pipeline_chunk_parse_seconds_bucket{le="+Inf"}`]; got != chunks {
		t.Errorf("chunk_parse_seconds +Inf bucket = %g, want %g", got, chunks)
	}
	// The per-registry error breakdown sums to the IR's error list.
	var srcSum int64
	for _, n := range pm.ParseErrors.Values() {
		srcSum += n
	}
	if srcSum != int64(len(x.Errors)) {
		t.Errorf("per-registry parse errors sum = %d, want %d", srcSum, len(x.Errors))
	}

	// Whois counters match the queries issued.
	if got := samples["rpslyzer_whois_queries_total"]; got != float64(queries) {
		t.Errorf("whois_queries_total = %g, want %d", got, queries)
	}
	if got := samples["rpslyzer_whois_connections_total"]; got != float64(queries) {
		t.Errorf("whois_connections_total = %g, want %d", got, queries)
	}
	if got := samples[`rpslyzer_whois_query_seconds_bucket{le="+Inf"}`]; got != float64(queries) {
		t.Errorf("whois query latency histogram count = %g, want %d", got, queries)
	}
	if !strings.Contains(body, "# TYPE rpslyzer_whois_query_seconds histogram") {
		t.Error("whois query latency histogram not exposed as TYPE histogram")
	}

	// The store's build histogram has one sample per swap, and the
	// samples are the freezes alone: their sum fits inside the time the
	// freeze calls took, which it could not with verification counted in.
	if got := samples["rpslyzer_report_store_swaps_total"]; got != float64(store.Swaps()) || got != 3 {
		t.Errorf("report_store_swaps_total = %g, want %d", got, store.Swaps())
	}
	if got := samples["rpslyzer_report_store_build_seconds_count"]; got != float64(store.Swaps()) {
		t.Errorf("report_store_build_seconds count = %g, want one per swap (%d)", got, store.Swaps())
	}
	if got := samples["rpslyzer_report_store_build_seconds_sum"]; got <= 0 || got > freezing.Seconds() {
		t.Errorf("report_store_build_seconds sum = %gs, want within the %v the freezes took", got, freezing)
	}

	// Pair memo: each pass evaluates every distinct (prefix,
	// communities, path suffix) pair once and serves the repeats from
	// the memo; served pairs still count as two checks each.
	pairs, memoHits := pairMemoWork(routes)
	if memoHits == 0 {
		t.Fatal("collector corpus shares no path suffixes; the memo assertion is vacuous")
	}
	if got := samples["rpslyzer_verify_pair_memo_hits_total"]; got != float64(2*memoHits) {
		t.Errorf("pair_memo_hits_total = %g, want %d", got, 2*memoHits)
	}
	if got := samples["rpslyzer_verify_checks_total"]; got != float64(2*2*pairs) {
		t.Errorf("verify_checks_total = %g, want %d", got, 2*2*pairs)
	}
	if got := samples["rpslyzer_verify_routes_total"] + samples["rpslyzer_verify_routes_ignored_total"]; got != float64(2*len(routes)) {
		t.Errorf("verified+ignored routes = %g, want %d", got, 2*len(routes))
	}
	// Per-status counters sum to the checks total.
	var byStatus float64
	for st := verify.Verified; st <= verify.Unverified; st++ {
		byStatus += samples[fmt.Sprintf(`rpslyzer_verify_checks_by_status_total{status="%s"}`, st)]
	}
	if byStatus != samples["rpslyzer_verify_checks_total"] {
		t.Errorf("checks by status sum = %g, want %g", byStatus, samples["rpslyzer_verify_checks_total"])
	}

	// pprof answers beside /metrics; the expvar copy of the registry
	// does not exist.
	for path, want := range map[string]int{"/debug/pprof/cmdline": http.StatusOK, "/debug/vars": http.StatusNotFound} {
		r, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, r.StatusCode, want)
		}
	}
}
