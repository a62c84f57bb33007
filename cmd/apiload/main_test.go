package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/telemetry"
)

var builtAt = regexp.MustCompile(`"built_at": *"[^"]*"`)

// walk returns /v1/summary, every page of /v1/ases and every page of an
// unfiltered /v1/reports cursor walk, `built_at` blanked.
func walk(t *testing.T, h http.Handler) [][]byte {
	t.Helper()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return builtAt.ReplaceAll(rec.Body.Bytes(), []byte(`"built_at":""`))
	}
	out := [][]byte{get("/v1/summary")}
	for _, path := range []string{"/v1/ases?limit=50", "/v1/reports?limit=1000"} {
		for next := path; next != ""; {
			body := get(next)
			out = append(out, body)
			var page struct {
				NextCursor string `json:"next_cursor"`
			}
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatalf("GET %s: %v", next, err)
			}
			next = ""
			if page.NextCursor != "" {
				next = path + "&cursor=" + url.QueryEscape(page.NextCursor)
			}
		}
	}
	return out
}

// TestSelfServeServesWhatReportdServes holds the self-served universe
// to the bytes a reportd started over the same universe on disk
// answers with: same summary, same AS listing, same report listing in
// the same order.
func TestSelfServeServesWhatReportdServes(t *testing.T) {
	const ases, collectors, seed = 200, 3, 5
	srv, _, asns := buildSelfServe(ases, collectors, seed)
	if len(asns) == 0 {
		t.Fatal("self-serve reports no ASes")
	}
	got := walk(t, srv.Handler())
	if len(got) < 4 {
		t.Fatalf("walk made %d requests; the corpus is too small to paginate", len(got))
	}

	sys, err := core.BuildSynthetic(core.Options{Seed: seed, ASes: ases, Collectors: collectors})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteUniverse(sys, sys.CollectRoutes(collectors, seed), dir); err != nil {
		t.Fatal(err)
	}
	e := daemon.NewEngine(&daemon.Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: telemetry.NewRegistry("apiload_test")}, nil)
	if err := e.Boot(dir, filepath.Join(dir, "as-rel.txt"), filepath.Join(dir, "routes.txt"), runtime.GOMAXPROCS(0), false); err != nil {
		t.Fatal(err)
	}
	want := walk(t, api.NewServer(e.Store(), api.Config{}, nil).Handler())
	if len(got) != len(want) {
		t.Fatalf("%d responses self-served, %d from the engine over the files", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("response %d differs\nself-served: %.400s\nfrom files:  %.400s", i, got[i], want[i])
		}
	}
}
