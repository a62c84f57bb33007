package api

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/trace"
)

func TestSnapshotAgeHeader(t *testing.T) {
	s, _, _ := newTestServer(t, Config{})
	for _, path := range []string{"/v1/summary", "/v1/ases", "/v1/as/64500/report"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		hdr := w.Header().Get(SnapshotAgeHeader)
		if hdr == "" {
			t.Errorf("%s: missing %s header", path, SnapshotAgeHeader)
			continue
		}
		age, err := strconv.ParseFloat(hdr, 64)
		if err != nil || age < 0 || age > 60 {
			t.Errorf("%s: %s = %q, want a small non-negative age", path, SnapshotAgeHeader, hdr)
		}
	}
	// Errors from wrap (bad request) still carry the header: the
	// snapshot was consulted.
	req := httptest.NewRequest(http.MethodGet, "/v1/ases?limit=bogus", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest || w.Header().Get(SnapshotAgeHeader) == "" {
		t.Errorf("bad request: code=%d age=%q", w.Code, w.Header().Get(SnapshotAgeHeader))
	}
	// No header before the first swap — there is no snapshot to age.
	empty := NewServer(reportstore.New(nil), Config{}, nil)
	w = httptest.NewRecorder()
	empty.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/summary", nil))
	if w.Header().Get(SnapshotAgeHeader) != "" {
		t.Error("snapshot-age header present with no snapshot loaded")
	}
}

func TestHealthzDegradesOnStaleness(t *testing.T) {
	wd := trace.NewWatchdog(trace.WatchdogConfig{MaxStaleness: 50 * time.Millisecond})
	store := reportstore.New(nil)
	s := NewServer(store, Config{Watchdog: wd}, nil)

	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	wd.RecordRefresh()
	var hz struct {
		Ready   bool     `json:"ready"`
		Health  string   `json:"health"`
		Reasons []string `json:"reasons"`
	}
	if code := get(t, s, "/healthz", &hz); code != http.StatusOK || hz.Health != "healthy" {
		t.Fatalf("fresh healthz: code=%d %+v", code, hz)
	}

	time.Sleep(80 * time.Millisecond)
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("stale healthz code = %d, want 503; body %s", w.Code, w.Body.String())
	}

	wd.RecordRefresh()
	if code := get(t, s, "/healthz", &hz); code != http.StatusOK || hz.Health != "healthy" {
		t.Fatalf("recovered healthz: code=%d %+v", code, hz)
	}
}

func TestWatchdogSeesRequestOutcomes(t *testing.T) {
	wd := trace.NewWatchdog(trace.WatchdogConfig{MaxErrorRate: 0.5})
	store := reportstore.New(nil) // no snapshot: every /v1/* request is a 503
	s := NewServer(store, Config{Watchdog: wd}, nil)
	for i := 0; i < 20; i++ { // the watchdog judges no fewer
		get(t, s, "/v1/summary", nil)
	}
	st := wd.Status()
	if st.Requests != 20 || st.ErrorRate != 1 {
		t.Fatalf("watchdog window = %+v, want 20 requests at rate 1", st)
	}
	if st.Health != trace.Degraded {
		t.Fatal("watchdog not degraded at 100% error rate")
	}
	if code := get(t, s, "/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d, want 503 while error rate breached", code)
	}
}

func TestRequestTracing(t *testing.T) {
	tr := trace.New(trace.Config{})
	s, _, _ := newTestServer(t, Config{Tracer: tr})
	get(t, s, "/v1/summary", nil)
	get(t, s, "/v1/summary", nil) // second hit comes from the cache

	recent := tr.Recent()
	if len(recent) != 2 {
		t.Fatalf("traces = %d, want 2", len(recent))
	}
	// Newest first: the second request must be marked a cache hit.
	ex := recent[0].Export()
	if ex.Stage != "api" || len(ex.Spans) != 1 {
		t.Fatalf("trace = %+v", ex)
	}
	attrs := map[string]string{}
	for _, a := range ex.Spans[0].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["cache"] != "hit" || attrs["code"] != "200" || attrs["uri"] != "/v1/summary" {
		t.Errorf("span attrs = %v", attrs)
	}
}

func TestLoadResultSeparatesErrors(t *testing.T) {
	store := reportstore.New(nil)
	store.Swap(reportstore.BuildSnapshot(fixture(t)))
	ts := httptest.NewServer(NewServer(store, Config{}, nil).Handler())
	defer ts.Close()
	target := NewHTTPTarget(ts.URL, 2)
	// AS population: one real AS plus one absent AS, so the run mixes
	// 2xx and 404 outcomes deterministically.
	res, err := RunLoad(target, []uint32{64500, 4200000000}, LoadConfig{
		Concurrency: 2, Duration: 100 * time.Millisecond, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Status2xx == 0 {
		t.Fatalf("result = %+v, want some 2xx traffic", res)
	}
	if got := res.Status2xx + res.Status4xx + res.Status5xx + res.NetErrors + res.NotFound; got != res.Requests {
		t.Errorf("class counts sum to %d, requests = %d", got, res.Requests)
	}
	if res.Errors != res.Status5xx+res.NetErrors {
		t.Errorf("Errors = %d, want %d", res.Errors, res.Status5xx+res.NetErrors)
	}
	if res.Status5xx != 0 || res.NetErrors != 0 || res.ErrorRate != 0 {
		t.Errorf("unexpected errors in healthy run: %+v", res)
	}
	if res.P50 <= 0 || res.Max < res.P99 {
		t.Errorf("percentiles not populated: %+v", res)
	}
}
