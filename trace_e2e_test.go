package rpslyzer

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// doReq dispatches one request through h and returns the recorder.
func doReq(h http.Handler, path string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

// waitFor polls cond until it returns true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// requireTree fails unless tr holds every span named in want under the
// parent want gives it ("" for the root).
func requireTree(t *testing.T, tr trace.TraceJSON, want map[string]string) {
	t.Helper()
	byID := map[uint32]string{}
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp.Name
	}
	tree := map[string]string{}
	for _, sp := range tr.Spans {
		tree[sp.Name] = byID[sp.Parent]
	}
	for name, parent := range want {
		if got, ok := tree[name]; !ok || got != parent {
			t.Errorf("%s trace %d: span %q under %q (present: %v), want under %q", tr.Stage, tr.ID, name, got, ok, parent)
		}
	}
}

// retainedTraces returns what the tracer's recent ring and slowest set
// hold.
func retainedTraces(t *testing.T, th http.Handler) []trace.TraceJSON {
	t.Helper()
	var retained []trace.TraceJSON
	for _, ep := range []string{"/debug/trace/recent", "/debug/trace/slowest"} {
		var page struct {
			Traces []trace.TraceJSON `json:"traces"`
		}
		if err := json.Unmarshal(doReq(th, ep).Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		retained = append(retained, page.Traces...)
	}
	return retained
}

// TestTraceEndToEnd drives the full mirror→verify→serve chain as
// reportd -mirror runs it — the daemon engine booted from the files on
// disk, its Step behind the process's nrtm.Poll loop, an API server
// under load — and then checks the observability contract: the boot is
// one rebuild trace from the files on disk to the swap, each journal one
// mirror trace from journal-apply down to the swap, both under the
// benchmark's layer names, the Chrome export is valid trace-event JSON
// covering the mirror/api stages, the heavy-hitter sketches saw the
// verification work, every /v1/* response carries the snapshot-age
// header, and /healthz degrades while the mirror is paused past the
// staleness SLO and recovers when journals flow again.
func TestTraceEndToEnd(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 11, ASes: 200, Collectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(4, 11)
	if len(routes) == 0 {
		t.Fatal("no routes collected")
	}
	dumpDir := t.TempDir()
	if err := core.WriteUniverse(sys, routes, dumpDir); err != nil {
		t.Fatal(err)
	}
	jdir := t.TempDir()

	reg := telemetry.NewRegistry("trace_e2e")
	tracer := trace.New(trace.Config{}) // no sampling: every operation traces
	const maxStale = 1200 * time.Millisecond
	watchdog := trace.NewWatchdog(trace.WatchdogConfig{MaxStaleness: maxStale})
	p := &daemon.Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Registry: reg, Tracer: tracer}
	th := tracer.Handler()

	// Stage 1: ingest the dumps through the traced pipeline, as whoisd
	// loads them.
	loadStats := &parser.LoadStats{Metrics: parser.NewPipelineMetrics(reg), Trace: tracer}
	if _, _, err := core.LoadDumpDirOpts(dumpDir, core.LoadOptions{Workers: 4, Stats: loadStats}); err != nil {
		t.Fatal(err)
	}

	// Stage 2: the engine's boot — verify everything, freeze, swap.
	e := daemon.NewEngine(p, watchdog)
	if err := e.Boot(dumpDir, filepath.Join(dumpDir, "as-rel.txt"), filepath.Join(dumpDir, "routes.txt"), 2, true); err != nil {
		t.Fatal(err)
	}
	store := e.Store()
	bootTree := map[string]string{
		"boot": "", "core.load_rels": "boot", "core.load_routes": "boot", "core.load_dumps": "boot",
		"irr.index": "boot", "verify.init": "boot", "reportstore.build": "boot", "reportstore.swap": "boot",
	}
	bootTraces := 0
	for _, tr := range retainedTraces(t, th) {
		if tr.Stage != "rebuild" || tr.Spans[0].Name != "boot" {
			continue
		}
		bootTraces++
		requireTree(t, tr, bootTree)
		// The layers run one after another inside the root, so dumps on
		// disk → swapped is the root and nothing in it is counted twice.
		var children float64
		for _, sp := range tr.Spans[1:] {
			if sp.Parent == tr.Spans[0].ID {
				children += sp.DurUS
			}
		}
		if tr.DurUS < children {
			t.Errorf("boot root lasted %.0f µs, its children %.0f µs in sum", tr.DurUS, children)
		}
	}
	if bootTraces == 0 {
		t.Error("no boot trace retained after start-up")
	}

	// Stage 3: the API server, traced and watched.
	srv := api.NewServer(store, api.Config{Tracer: tracer, Watchdog: watchdog}, api.NewMetrics(reg))
	h := srv.Handler()
	if w := doReq(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("initial healthz = %d: %s", w.Code, w.Body.String())
	}

	// Stage 4: the mirror poll loop over an (initially empty) journal
	// directory, stepping the engine on every applied journal.
	e.Mirror(dumpDir, jdir, 20*time.Millisecond)
	defer p.Stop()

	// Evolve the universe two steps; hold the second step back so the
	// mirror goes stale in between.
	cfg := irrgen.EvolveConfig{Seed: 11}
	serials := make(map[string]uint64)
	writeStep := func(step int, prev *ir.IR) *ir.IR {
		next := irrgen.Evolve(prev, step, cfg)
		journals := evolve.Compare(prev, next).ToJournals(prev, next, serials)
		if len(journals) == 0 {
			t.Fatalf("step %d: evolution produced no journals", step)
		}
		for _, j := range journals {
			path := filepath.Join(jdir, fmt.Sprintf("%06d.%s.nrtm", step, j.Registry))
			if err := nrtm.WriteJournalFile(path, j); err != nil {
				t.Fatal(err)
			}
		}
		return next
	}

	swaps0 := store.Swaps()
	next := writeStep(1, sys.IR)
	waitFor(t, 10*time.Second, "mirror-driven store swap", func() bool {
		return store.Swaps() > swaps0
	})
	if w := doReq(h, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("healthz after journal apply = %d: %s", w.Code, w.Body.String())
	}

	// Mirror paused (no new journals): staleness must breach the SLO.
	var hz struct {
		Health  string   `json:"health"`
		Reasons []string `json:"reasons"`
	}
	waitFor(t, 10*time.Second, "healthz to degrade on staleness", func() bool {
		return doReq(h, "/healthz").Code == http.StatusServiceUnavailable
	})
	w := doReq(h, "/healthz")
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Health != "degraded" || len(hz.Reasons) == 0 || !strings.Contains(hz.Reasons[0], "staleness") {
		t.Fatalf("degraded healthz body = %s", w.Body.String())
	}

	// Journals resume: the next applied journal refreshes the watchdog.
	writeStep(2, next)
	waitFor(t, 10*time.Second, "healthz to recover after resume", func() bool {
		return doReq(h, "/healthz").Code == http.StatusOK
	})

	// Stage 5: drive API load over loopback, as cmd/apiload does.
	asns := make([]uint32, 0, len(store.Current().ASNs()))
	for _, a := range store.Current().ASNs() {
		asns = append(asns, uint32(a))
	}
	ts := httptest.NewServer(h)
	defer ts.Close()
	res, err := api.RunLoad(api.NewHTTPTarget(ts.URL, 4), asns, api.LoadConfig{
		Concurrency: 4, Duration: 150 * time.Millisecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status2xx == 0 || res.Status5xx != 0 || res.NetErrors != 0 {
		t.Fatalf("load result = %+v, want clean 2xx traffic", res)
	}

	// Every /v1/* response carries the snapshot-age header.
	for _, path := range []string{"/v1/summary", "/v1/ases", fmt.Sprintf("/v1/as/%d/report", asns[0]), "/v1/ases?limit=bogus"} {
		if hdr := doReq(h, path).Header().Get(api.SnapshotAgeHeader); hdr == "" {
			t.Errorf("%s: missing %s header", path, api.SnapshotAgeHeader)
		}
	}

	// The trace surface: summary, a mirror trace spanning
	// journal-apply→step→swap, a Perfetto-loadable Chrome export
	// covering the chain's stages, and non-empty heavy-hitter sketches.
	var summary struct {
		Stages []trace.StageSummary `json:"stages"`
		TopKs  []string             `json:"topk_sketches"`
	}
	if err := json.Unmarshal(doReq(th, "/debug/trace/summary").Body.Bytes(), &summary); err != nil {
		t.Fatal(err)
	}
	stagesSeen := map[string]bool{}
	for _, st := range summary.Stages {
		stagesSeen[st.Stage] = true
	}
	for _, want := range []string{"ingest", "rebuild", "mirror", "verify", "api"} {
		if !stagesSeen[want] {
			t.Errorf("stage %q missing from trace summary (have %v)", want, stagesSeen)
		}
	}

	// The load run floods the recent ring with api traces, but the
	// slow journal applies survive in the slowest set — check both.
	journalTree := map[string]string{
		"journal-apply": "", "nrtm.read": "journal-apply", "nrtm.apply": "journal-apply", "onapply": "journal-apply",
		"step": "onapply", "verify.reverify": "step", "invalidate": "verify.reverify", "reverify-routes": "verify.reverify",
		"reportstore.build": "step", "reportstore.swap": "step",
	}
	journalTraces := 0
	for _, tr := range retainedTraces(t, th) {
		if tr.Stage != "mirror" || tr.Spans[0].Name != "journal-apply" {
			continue
		}
		journalTraces++
		requireTree(t, tr, journalTree)
	}
	if journalTraces == 0 {
		t.Error("no journal-apply trace retained")
	}

	var chrome struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	cw := doReq(th, "/debug/trace/chrome")
	if err := json.Unmarshal(cw.Body.Bytes(), &chrome); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if chrome.DisplayTimeUnit != "ms" || len(chrome.TraceEvents) == 0 {
		t.Fatalf("chrome export: unit=%q events=%d", chrome.DisplayTimeUnit, len(chrome.TraceEvents))
	}
	tracks := map[string]bool{}
	spans := 0
	for _, ev := range chrome.TraceEvents {
		switch ev.Phase {
		case "M":
			if name, _ := ev.Args["name"].(string); name != "" {
				tracks[name] = true
			}
		case "X":
			spans++
		}
	}
	if spans == 0 || !tracks["stage:mirror"] || !tracks["stage:api"] {
		t.Errorf("chrome export tracks = %v, spans = %d; want mirror and api tracks", tracks, spans)
	}

	var topk map[string][]trace.Entry
	if err := json.Unmarshal(doReq(th, "/debug/trace/topk?name="+verify.SketchSlowASes).Body.Bytes(), &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk[verify.SketchSlowASes]) == 0 {
		t.Errorf("%s sketch is empty after verification", verify.SketchSlowASes)
	}
	for _, e := range topk[verify.SketchSlowASes] {
		if !strings.HasPrefix(e.Key, "AS") || e.Weight <= 0 {
			t.Errorf("bad heavy-hitter entry %+v", e)
		}
	}
}
