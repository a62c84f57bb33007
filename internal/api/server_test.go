package api

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

func mustPrefix(t *testing.T, s string) prefix.Prefix {
	t.Helper()
	p, err := prefix.Parse(s)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return p
}

func rep(t *testing.T, pfx string, path []ir.ASN, checks ...verify.Check) verify.RouteReport {
	t.Helper()
	return verify.RouteReport{
		Route:  bgpsim.Route{Prefix: mustPrefix(t, pfx), Path: path},
		Checks: checks,
	}
}

func chk(from, to ir.ASN, dir ir.Direction, st verify.Status, reasons ...verify.Reason) verify.Check {
	return verify.Check{From: from, To: to, Dir: dir, Status: st, Reasons: reasons}
}

// fixture returns the same small corpus as the reportstore tests: two
// verified/unverified/unrecorded routes plus one ignored single-AS
// route, owned by ASes 20 and 30, originated by 10 and 40.
func fixture(t *testing.T) []verify.RouteReport {
	t.Helper()
	r1 := rep(t, "10.0.0.0/24", []ir.ASN{30, 20, 10},
		chk(20, 30, ir.DirExport, verify.Verified),
		chk(20, 30, ir.DirImport, verify.Unverified,
			verify.Reason{Kind: verify.MatchFilter, ASN: 10, Name: "AS-EXAMPLE"}),
	)
	r2 := rep(t, "10.0.1.0/24", []ir.ASN{20, 10},
		chk(10, 20, ir.DirImport, verify.Unrecorded,
			verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 10}),
	)
	r3 := rep(t, "10.0.2.0/24", []ir.ASN{40})
	r3.Ignored = "single-as"
	return []verify.RouteReport{r1, r2, r3}
}

// newTestServer builds a server over a freshly swapped snapshot.
func newTestServer(t *testing.T, cfg Config) (*Server, *reportstore.Store, *Metrics) {
	t.Helper()
	store := reportstore.New(nil)
	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	m := NewMetrics(telemetry.NewRegistry("test"))
	return NewServer(store, cfg, m), store, m
}

// get issues one request through the handler and decodes the response.
func get(t *testing.T, s *Server, path string, out any) int {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if out != nil && w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("decode %s: %v\nbody: %s", path, err, w.Body.String())
		}
	}
	return w.Code
}

func TestServeBeforeFirstSwap(t *testing.T) {
	store := reportstore.New(nil)
	s := NewServer(store, Config{}, nil)

	if code := get(t, s, "/v1/summary", nil); code != http.StatusServiceUnavailable {
		t.Errorf("summary before swap = %d, want 503", code)
	}
	var hz struct {
		Ready  bool   `json:"ready"`
		Serial uint64 `json:"serial"`
	}
	if code := get(t, s, "/healthz", &hz); code != http.StatusOK || hz.Ready {
		t.Errorf("healthz before swap: code=%d ready=%v", code, hz.Ready)
	}

	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	if code := get(t, s, "/healthz", &hz); code != http.StatusOK || !hz.Ready || hz.Serial != 1 {
		t.Errorf("healthz after swap: code=%d %+v", code, hz)
	}
}

func TestSummary(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	var sum SummaryJSON
	if code := get(t, s, "/v1/summary", &sum); code != http.StatusOK {
		t.Fatalf("summary = %d", code)
	}
	if sum.Serial != 1 || sum.Swaps != 1 {
		t.Errorf("serial/swaps = %d/%d", sum.Serial, sum.Swaps)
	}
	if sum.Routes != 2 || sum.IgnoredSingleAS != 1 || sum.IgnoredASSet != 0 {
		t.Errorf("routes = %d ignored = %d/%d", sum.Routes, sum.IgnoredASSet, sum.IgnoredSingleAS)
	}
	if sum.ASes != 2 || sum.Pairs != 2 {
		t.Errorf("ases/pairs = %d/%d", sum.ASes, sum.Pairs)
	}
	if sum.Checks["verified"] != 1 || sum.Checks["unverified"] != 1 || sum.Checks["unrecorded"] != 1 {
		t.Errorf("checks = %v", sum.Checks)
	}
}

func TestASReport(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	var r ASReportJSON
	if code := get(t, s, "/v1/as/20/report", &r); code != http.StatusOK {
		t.Fatalf("as 20 report = %d", code)
	}
	if r.ASN != 20 || r.TotalChecks != 2 {
		t.Errorf("report = %+v", r)
	}
	if r.Exports["verified"] != 1 || r.Imports["unrecorded"] != 1 {
		t.Errorf("imports/exports = %v / %v", r.Imports, r.Exports)
	}
	if len(r.UnrecordedCauses) != 1 || r.UnrecordedCauses[0] != "no-aut-num" {
		t.Errorf("unrecorded causes = %v", r.UnrecordedCauses)
	}
	if len(r.Checks) != 2 {
		t.Fatalf("checks = %d", len(r.Checks))
	}
	if r.Checks[0].Prefix != "10.0.0.0/24" || r.Checks[0].Status != "verified" {
		t.Errorf("check0 = %+v", r.Checks[0])
	}

	// "AS20" path form resolves to the same AS.
	var r2 ASReportJSON
	if code := get(t, s, "/v1/as/AS20/report", &r2); code != http.StatusOK || r2.ASN != 20 {
		t.Errorf("AS-prefixed lookup: code=%d asn=%d", code, r2.ASN)
	}

	if code := get(t, s, "/v1/as/999/report", nil); code != http.StatusNotFound {
		t.Errorf("unknown AS = %d, want 404", code)
	}
	// AS40 only originates an ignored route: no report.
	if code := get(t, s, "/v1/as/40/report", nil); code != http.StatusNotFound {
		t.Errorf("stats-less AS = %d, want 404", code)
	}
	if code := get(t, s, "/v1/as/notanas/report", nil); code != http.StatusBadRequest {
		t.Errorf("bad ASN = %d, want 400", code)
	}
}

func TestASRoutes(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	var r ASRoutesJSON
	if code := get(t, s, "/v1/as/10/routes", &r); code != http.StatusOK {
		t.Fatalf("as 10 routes = %d", code)
	}
	if r.TotalRoutes != 2 || len(r.Routes) != 2 {
		t.Fatalf("routes = %+v", r)
	}
	if r.Routes[0].Prefix != "10.0.0.0/24" || r.Routes[0].Statuses["verified"] != 1 {
		t.Errorf("route0 = %+v", r.Routes[0])
	}
	// The ignored route still lists under its origin, with its marker.
	var r40 ASRoutesJSON
	if code := get(t, s, "/v1/as/40/routes", &r40); code != http.StatusOK {
		t.Fatalf("as 40 routes = %d", code)
	}
	if len(r40.Routes) != 1 || r40.Routes[0].Ignored != "single-as" {
		t.Errorf("ignored route = %+v", r40.Routes)
	}
	if code := get(t, s, "/v1/as/20/routes", nil); code != http.StatusNotFound {
		t.Errorf("non-origin AS routes = %d, want 404", code)
	}
}

func TestReportsFilters(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	var all ReportsJSON
	if code := get(t, s, "/v1/reports", &all); code != http.StatusOK || len(all.Checks) != 3 {
		t.Fatalf("unfiltered: code=%d n=%d", code, len(all.Checks))
	}

	var byStatus ReportsJSON
	get(t, s, "/v1/reports?status=unverified", &byStatus)
	if len(byStatus.Checks) != 1 || byStatus.Checks[0].Status != "unverified" {
		t.Errorf("status filter = %+v", byStatus.Checks)
	}

	var byReason ReportsJSON
	get(t, s, "/v1/reports?reason=UnrecordedAutNum", &byReason)
	if len(byReason.Checks) != 1 || byReason.Checks[0].Status != "unrecorded" {
		t.Errorf("reason filter = %+v", byReason.Checks)
	}

	// Combined: reason index scanned, status filter applied per record.
	var both ReportsJSON
	get(t, s, "/v1/reports?reason=MatchFilter&status=unverified", &both)
	if len(both.Checks) != 1 || both.Checks[0].Status != "unverified" {
		t.Errorf("combined filter = %+v", both.Checks)
	}
	var none ReportsJSON
	get(t, s, "/v1/reports?reason=MatchFilter&status=verified", &none)
	if len(none.Checks) != 0 {
		t.Errorf("contradictory filter returned %+v", none.Checks)
	}

	if code := get(t, s, "/v1/reports?status=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad status = %d, want 400", code)
	}
	if code := get(t, s, "/v1/reports?reason=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad reason = %d, want 400", code)
	}
}

func TestReverse(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	var byKind ReverseJSON
	get(t, s, "/v1/reverse/reason/MatchFilter", &byKind)
	if byKind.Kind != "reason" || len(byKind.ASes) != 1 || byKind.ASes[0] != 30 {
		t.Errorf("reason reverse = %+v", byKind)
	}

	var byCause ReverseJSON
	get(t, s, "/v1/reverse/reason/no-aut-num", &byCause)
	if byCause.Kind != "cause" || len(byCause.ASes) != 1 || byCause.ASes[0] != 20 {
		t.Errorf("cause reverse = %+v", byCause)
	}

	var byStatus ReverseJSON
	get(t, s, "/v1/reverse/status/verified", &byStatus)
	if byStatus.Kind != "status" || len(byStatus.ASes) != 1 || byStatus.ASes[0] != 20 {
		t.Errorf("status reverse = %+v", byStatus)
	}

	if code := get(t, s, "/v1/reverse/reason/never-heard-of-it", nil); code != http.StatusNotFound {
		t.Errorf("unknown class = %d, want 404", code)
	}
	if code := get(t, s, "/v1/reverse/status/bogus", nil); code != http.StatusNotFound {
		t.Errorf("unknown status = %d, want 404", code)
	}
}

func TestPaginationCursorWalk(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	// Walk /v1/ases one AS per page; cursors must chain through all 4.
	var seen []uint32
	path := "/v1/ases?limit=1"
	for i := 0; i < 10; i++ {
		var page ASListJSON
		if code := get(t, s, path, &page); code != http.StatusOK {
			t.Fatalf("page %d = %d", i, code)
		}
		if page.TotalASes != 4 || len(page.ASes) != 1 {
			t.Fatalf("page %d = %+v", i, page)
		}
		seen = append(seen, page.ASes...)
		if page.NextCursor == "" {
			break
		}
		path = "/v1/ases?limit=1&cursor=" + page.NextCursor
	}
	if want := []uint32{10, 20, 30, 40}; len(seen) != 4 || seen[0] != want[0] || seen[3] != want[3] {
		t.Errorf("walked ASes = %v, want %v", seen, want)
	}

	// page= is the offset alternative.
	var page ASListJSON
	get(t, s, "/v1/ases?limit=2&page=1", &page)
	if len(page.ASes) != 2 || page.ASes[0] != 30 {
		t.Errorf("page=1 = %+v", page)
	}

	// Past-the-end offsets return an empty page, not an error.
	var empty ASListJSON
	if code := get(t, s, "/v1/ases?limit=2&page=99", &empty); code != http.StatusOK || len(empty.ASes) != 0 {
		t.Errorf("past-end page: code=%d %+v", code, empty)
	}

	if code := get(t, s, "/v1/ases?cursor=garbage", nil); code != http.StatusBadRequest {
		t.Errorf("bad cursor = %d, want 400", code)
	}
	if code := get(t, s, "/v1/ases?limit=0", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", code)
	}
}

func TestPaginationOverflowRejected(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})

	// A huge page number would overflow offset = page*limit to a
	// negative value and panic the slice downstream; it must 400.
	for _, path := range []string{
		"/v1/ases?page=9000000000000000000",
		"/v1/as/20/report?page=9000000000000000000",
		"/v1/as/10/routes?page=9000000000000000000",
		"/v1/reports?page=9000000000000000000",
		"/v1/reverse/status/verified?page=9000000000000000000",
		"/v1/ases?limit=1000&page=9300000000000000",
	} {
		if code := get(t, s, path, nil); code != http.StatusBadRequest {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}

	// A cursor offset near MaxInt would overflow offset+limit; 400 too.
	if code := get(t, s, "/v1/ases?cursor=v1:1:9223372036854775800", nil); code != http.StatusBadRequest {
		t.Errorf("overflowing cursor = %d, want 400", code)
	}
}

func TestCursorGoneAfterSwap(t *testing.T) {
	s, store, _ := newTestServer(t, Config{})

	var page ASListJSON
	get(t, s, "/v1/ases?limit=1", &page)
	if page.NextCursor == "" {
		t.Fatal("no cursor on first page")
	}

	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	if code := get(t, s, "/v1/ases?limit=1&cursor="+page.NextCursor, nil); code != http.StatusGone {
		t.Errorf("stale cursor = %d, want 410", code)
	}
}

func TestResponseCache(t *testing.T) {
	s, store, m := newTestServer(t, Config{})

	for i := 0; i < 3; i++ {
		if code := get(t, s, "/v1/summary", nil); code != http.StatusOK {
			t.Fatalf("summary = %d", code)
		}
	}
	if m.CacheMisses() != 1 || m.CacheHits() != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/1", m.CacheHits(), m.CacheMisses())
	}

	// Errors are not cached: every 404 renders.
	get(t, s, "/v1/as/999/report", nil)
	get(t, s, "/v1/as/999/report", nil)
	if m.CacheHits() != 2 {
		t.Errorf("error response was cached: hits = %d", m.CacheHits())
	}

	// A swap changes the key: the same URI misses once, then hits.
	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	get(t, s, "/v1/summary", nil)
	get(t, s, "/v1/summary", nil)
	if m.CacheHits() != 3 {
		t.Errorf("post-swap hits = %d, want 3", m.CacheHits())
	}
}

func TestCacheDisabled(t *testing.T) {
	s, _, m := newTestServer(t, Config{CacheEntries: -1})
	get(t, s, "/v1/summary", nil)
	get(t, s, "/v1/summary", nil)
	if m.CacheHits() != 0 || m.CacheMisses() != 2 {
		t.Errorf("disabled cache hits/misses = %d/%d", m.CacheHits(), m.CacheMisses())
	}
}

func TestSingleflightCollapse(t *testing.T) {
	// A slow store-free render can't be forced deterministically through
	// the HTTP surface, so exercise the flight group directly: N
	// concurrent misses on one key must produce one render.
	fg := newFlightGroup()
	var renders, shared int
	var mu sync.Mutex
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, sh := fg.Do("k", func() cacheEntry {
				mu.Lock()
				renders++
				mu.Unlock()
				<-release
				return cacheEntry{code: 200, body: []byte("x")}
			})
			if sh {
				mu.Lock()
				shared++
				mu.Unlock()
			}
		}()
	}
	// Release the leader only once all seven followers are parked on its
	// call; releasing earlier lets late arrivals start fresh flights.
	for parked := 0; parked < 7; {
		fg.mu.Lock()
		if call := fg.m["k"]; call != nil {
			parked = call.waiters
		}
		fg.mu.Unlock()
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if renders != 1 {
		t.Errorf("renders = %d, want 1", renders)
	}
	if shared != 7 {
		t.Errorf("shared = %d, want 7", shared)
	}
}

func TestSingleflightPanicReleasesWaiters(t *testing.T) {
	fg := newFlightGroup()
	entered := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})

	go func() {
		defer close(leaderDone)
		defer func() { recover() }()
		fg.Do("k", func() cacheEntry {
			close(entered)
			<-release
			panic("render blew up")
		})
	}()
	<-entered

	// Capture the in-flight call a waiter would block on, then let the
	// leader panic.
	fg.mu.Lock()
	call := fg.m["k"]
	fg.mu.Unlock()
	if call == nil {
		t.Fatal("no in-flight call registered for key")
	}
	close(release)
	<-leaderDone

	// The waiter contract: done must be closed (this receive deadlocked
	// before the deferred cleanup) with a served entry, and the key must
	// be freed for the next render.
	<-call.done
	if call.ent.code != 500 {
		t.Errorf("waiter entry code = %d, want 500", call.ent.code)
	}
	fg.mu.Lock()
	leaked := len(fg.m)
	fg.mu.Unlock()
	if leaked != 0 {
		t.Errorf("flight map leaked %d entries after panic", leaked)
	}
	ent, shared := fg.Do("k", func() cacheEntry { return cacheEntry{code: 200} })
	if shared || ent.code != 200 {
		t.Errorf("post-panic Do = (%d, shared=%v), want fresh 200 render", ent.code, shared)
	}
}

func TestLRUCacheEviction(t *testing.T) {
	// Capacity is split over 16 shards; with capacity 16 each shard
	// holds one entry, so two keys on the same shard evict each other.
	c := newLRUCache(16)
	c.Put("a", 200, []byte("1"))
	if ent, ok := c.Get("a"); !ok || string(ent.body) != "1" {
		t.Fatalf("get a = %v %v", ent, ok)
	}
	for i := 0; i < 1000; i++ {
		c.Put(string(rune('b'+i%26))+string(rune('0'+i%10)), 200, []byte("x"))
	}
	if got := c.Len(); got > 16 {
		t.Errorf("cache len = %d, want <= capacity 16", got)
	}
}
