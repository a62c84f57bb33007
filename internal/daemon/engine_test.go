package daemon

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// universe writes a 200-AS corpus the way `irrgen -evolve 1` does:
// dumps, as-rel.txt, routes.txt and one evolution step of per-registry
// journals under journals/. The universe it wrote is returned too.
func universe(t *testing.T) (string, *core.System) {
	t.Helper()
	dir := t.TempDir()
	sys, err := core.BuildSynthetic(core.Options{Seed: 5, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteUniverse(sys, sys.CollectRoutes(3, 5), dir); err != nil {
		t.Fatal(err)
	}
	jdir := filepath.Join(dir, "journals")
	if err := os.Mkdir(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	next := irrgen.Evolve(sys.IR, 1, irrgen.EvolveConfig{Seed: 5, PolicyChurnFrac: 0.05, SetChurnFrac: 0.05,
		RouteAddFrac: 0.02, RouteWithdrawFrac: 0.02})
	for _, j := range evolve.Compare(sys.IR, next).ToJournals(sys.IR, next, nil) {
		if err := nrtm.WriteJournalFile(filepath.Join(jdir, fmt.Sprintf("000001.%s.nrtm", j.Registry)), j); err != nil {
			t.Fatal(err)
		}
	}
	return dir, sys
}

// testProcess is a Process as a test fills it: no log output, its own
// registry, every operation traced.
func testProcess(name string) *Process {
	return &Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		Registry: telemetry.NewRegistry(name), Tracer: trace.New(trace.Config{})}
}

// boot runs reportd's start-up in-process, from the flags that choose
// the path to the first published snapshot.
func boot(t *testing.T, args ...string) *Engine {
	t.Helper()
	var dumps, rels, routes, importPath, mirrorDir string
	fs := flag.NewFlagSet("reportd", flag.ContinueOnError)
	fs.StringVar(&dumps, "dumps", "", "")
	fs.StringVar(&rels, "rels", "", "")
	fs.StringVar(&routes, "routes", "", "")
	fs.StringVar(&importPath, "import", "", "")
	fs.StringVar(&mirrorDir, "mirror", "", "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(testProcess("reportd_test"), trace.NewWatchdog(trace.WatchdogConfig{}))
	var err error
	if importPath != "" {
		err = e.Import(importPath)
	} else {
		err = e.Boot(dumps, rels, routes, mirrorDir != "")
	}
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func corpusArgs(dumps, dir string, extra ...string) []string {
	return append([]string{"-dumps", dumps, "-rels", filepath.Join(dir, "as-rel.txt"),
		"-routes", filepath.Join(dir, "routes.txt")}, extra...)
}

// Fields that say when and how often a snapshot was published, not what
// it holds.
var (
	builtAt = regexp.MustCompile(`"built_at": *"[^"]*"`)
	serials = regexp.MustCompile(`"(serial|swaps)": *[0-9]+|"next_cursor": *"[^"]*"`)
)

// bodies returns /v1/summary, every page of /v1/ases and every page of
// an unfiltered /v1/reports walk, in request order.
func bodies(t *testing.T, d *Engine, ignoreSerials bool) [][]byte {
	t.Helper()
	h := api.NewServer(d.store, api.Config{}, nil).Handler()
	get := func(path string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
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
	if len(out) < 4 {
		t.Fatalf("walk made %d requests; the corpus is too small to paginate", len(out))
	}
	for i, b := range out {
		b = builtAt.ReplaceAll(b, []byte(`"built_at":""`))
		if ignoreSerials {
			b = serials.ReplaceAll(b, nil)
		}
		out[i] = b
	}
	return out
}

func requireSameBodies(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d responses, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: response %d differs\ngot:  %.400s\nwant: %.400s", what, i, got[i], want[i])
		}
	}
}

// TestOnePipeline holds every way into reportd to the same served
// bytes: a fresh run, a -mirror run before any journal, and an -import
// of the same reports publish identical snapshots, and so does
// BootCorpus over the universe in memory (where `verify -changed`
// enters); three journals through the Poll hook end where a fresh run
// over the mirrored dumps starts; and a resync (nil keys) publishes too.
func TestOnePipeline(t *testing.T) {
	dir, sys := universe(t)
	jdir := filepath.Join(dir, "journals")

	fresh := boot(t, corpusArgs(dir, dir)...)
	if fresh.inc != nil {
		t.Error("a run without -mirror kept its engine after the first publish")
	}
	want := bodies(t, fresh, false)

	mirror := boot(t, corpusArgs(dir, dir, "-mirror", jdir)...)
	requireSameBodies(t, "-mirror before any journal", bodies(t, mirror, false), want)

	jsonl := filepath.Join(t.TempDir(), "reports.jsonl")
	writeReports(t, dir, jsonl)
	imported := boot(t, "-import", jsonl)
	requireSameBodies(t, "-import", bodies(t, imported, false), want)

	inMemory := NewEngine(testProcess("reportd_test"), nil)
	if err := inMemory.BootCorpus(sys.DB, sys.Rels, sys.CollectRoutes(3, 5), verify.Config{}, false); err != nil {
		t.Fatal(err)
	}
	requireSameBodies(t, "BootCorpus over the universe in memory", bodies(t, inMemory, false), want)

	files, err := filepath.Glob(filepath.Join(jdir, "*.nrtm"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want at least 3 journal files, have %d (%v)", len(files), err)
	}
	sort.Strings(files)
	mir := nrtm.NewMirrorDB(mirror.inc.Verifier().DB, nil, nil)
	for _, path := range files[:3] {
		j, err := nrtm.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := mir.ApplyAllKeys([]*nrtm.Journal{j})
		if err != nil {
			t.Fatal(err)
		}
		mirror.Step(mir.DB(), keys, nil)
	}
	if got := mirror.store.Swaps(); got != 4 {
		t.Fatalf("%d swaps after boot and three journals, want 4", got)
	}
	stepped := bodies(t, mirror, true)
	if bytes.Equal(bytes.Join(stepped, nil), bytes.Join(bodies(t, fresh, true), nil)) {
		t.Fatal("three journals changed no served byte; the differential below would prove nothing")
	}
	mirrored := t.TempDir()
	if err := core.WriteIRDumps(mirrored, mir.DB().IR); err != nil {
		t.Fatal(err)
	}
	requireSameBodies(t, "three journals against a fresh run over the mirrored dumps",
		stepped, bodies(t, boot(t, corpusArgs(mirrored, dir)...), true))

	mirror.Step(irr.New(mir.DB().IR), nil, nil)
	if got := mirror.store.Swaps(); got != 5 {
		t.Fatalf("%d swaps after a resync, want 5", got)
	}
	requireSameBodies(t, "resync", bodies(t, mirror, true), stepped)
}

// TestConcurrentStepsKeepOldSnapshot: a published snapshot reads its
// checks and reasons from the engine's reports, which every Step patches
// and a resync replaces. Two readers re-render a sample of the first
// snapshot's API while the journals and a resync go through Step, and
// every body must stay what it was before the first step.
func TestConcurrentStepsKeepOldSnapshot(t *testing.T) {
	dir, _ := universe(t)
	jdir := filepath.Join(dir, "journals")
	e := boot(t, corpusArgs(dir, dir, "-mirror", jdir)...)
	old := e.Store().Current()
	// A spread of the check listing, since which checks the steps patch
	// no one can name beforehand; then the other listings and a spread
	// of ASes.
	paths := []string{"/v1/summary", "/v1/ases?limit=100"}
	for page := 0; page*1000 < old.NumChecks(); page += 8 {
		paths = append(paths, fmt.Sprintf("/v1/reports?limit=1000&page=%d", page))
	}
	for st := verify.Verified; st <= verify.Unverified; st++ {
		paths = append(paths, "/v1/reports?limit=20&status="+st.String(), "/v1/reverse/status/"+st.String())
	}
	for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
		paths = append(paths, "/v1/reports?limit=20&reason="+k.String())
	}
	asns := old.ASNs()
	for i := 0; i < len(asns); i += max(1, len(asns)/12) {
		paths = append(paths, fmt.Sprintf("/v1/as/%d/report?limit=50", asns[i]), fmt.Sprintf("/v1/as/%d/routes?limit=50", asns[i]))
	}
	// render answers paths from store, uncached.
	render := func(store *reportstore.Store) []string {
		h := api.NewServer(store, api.Config{CacheEntries: -1}, nil).Handler()
		out := make([]string, len(paths))
		for i, path := range paths {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			out[i] = fmt.Sprintf("%d %s", rec.Code, rec.Body)
		}
		return out
	}
	oldStore := reportstore.New(nil)
	oldStore.Swap(old)
	want := render(oldStore)

	var rendered [2]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := range rendered {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, body := range render(oldStore) {
					if body != want[i] {
						t.Errorf("GET %s on the first snapshot changed beside a step:\n got: %.300s\nwant: %.300s", paths[i], body, want[i])
						return
					}
				}
				rendered[r].Add(1)
			}
		}()
	}
	// Each reader finishes a render that began after what came before.
	waitRenders := func() {
		var since [len(rendered)]int64
		for r := range rendered {
			since[r] = rendered[r].Load()
		}
		for r := range rendered {
			for rendered[r].Load() < since[r]+2 && !t.Failed() {
				time.Sleep(time.Millisecond)
			}
		}
	}

	files, err := filepath.Glob(filepath.Join(jdir, "*.nrtm"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no journal files (%v)", err)
	}
	sort.Strings(files)
	mir := nrtm.NewMirrorDB(e.inc.Verifier().DB, nil, nil)
	waitRenders()
	for _, path := range files {
		j, err := nrtm.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		keys, err := mir.ApplyAllKeys([]*nrtm.Journal{j})
		if err != nil {
			t.Fatal(err)
		}
		e.Step(mir.DB(), keys, nil)
	}
	e.Step(irr.New(mir.DB().IR), nil, nil)
	waitRenders()
	close(stop)
	wg.Wait()

	changed := false
	for i := uint32(0); int(i) < old.NumChecks() && !changed; i++ {
		a, b := old.Check(i), e.Store().Current().Check(i)
		changed = a.Status != b.Status || !slices.Equal(a.Reasons, b.Reasons)
	}
	if !changed {
		t.Fatal("the steps changed no check; the test would prove nothing")
	}
}

// TestImportRejectsWhatNoVerifierWrites: a line whose "ignored" is not
// one of the verifier's two values, or that carries checks beside it,
// would be counted by the summary and left out of every listing. The
// import fails, naming the line, and the snapshot published before it
// keeps serving.
func TestImportRejectsWhatNoVerifierWrites(t *testing.T) {
	dir, _ := universe(t)
	good := filepath.Join(t.TempDir(), "reports.jsonl")
	writeReports(t, dir, good)
	e := boot(t, "-import", good)
	want := bodies(t, e, false)
	lines, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	const check = `"checks":[{"from":1,"to":2,"dir":"import","status":"verified"}]`
	for _, bad := range []string{
		`{"prefix":"192.0.2.0/24","path":[2,1],"ignored":"x",` + check + `}`,
		`{"prefix":"192.0.2.0/24","path":[2,1],"ignored":"x"}`,
		`{"prefix":"192.0.2.0/24","path":[2,1],"ignored":"single-as",` + check + `}`,
	} {
		path := filepath.Join(t.TempDir(), "bad.jsonl")
		first := bytes.IndexByte(lines, '\n') + 1
		if err := os.WriteFile(path, []byte(string(lines[:first])+bad+"\n"+string(lines[first:])), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := e.Import(path); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("import of %s: error %v, want one naming line 2", bad, err)
		}
		if got := e.store.Swaps(); got != 1 {
			t.Fatalf("%d swaps after a failed import, want the first one only", got)
		}
		requireSameBodies(t, "after a failed import", bodies(t, e, false), want)
	}
}

// benchLayers returns the layers BENCHMARK.json times: its per_layer
// rows named <layer>_s, without the suffix.
func benchLayers(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	layers := map[string]bool{}
	for _, row := range decl.PerLayer {
		if layer, ok := strings.CutSuffix(row.Name, "_s"); ok {
			layers[layer] = true
		}
	}
	if len(layers) == 0 {
		t.Fatal("BENCHMARK.json declares no per_layer *_s row")
	}
	return layers
}

// TestSpanVocabulary holds the daemon's traces to the benchmark's layer
// names: a reportd -mirror boot and every journal behind nrtm.Poll leave
// traces in which each dotted span name is a per_layer row of
// BENCHMARK.json, and the boot, the step and the journal apply each have
// a child for every layer call they make.
func TestSpanVocabulary(t *testing.T) {
	layers := benchLayers(t)
	dir, _ := universe(t)
	jdir := filepath.Join(dir, "journals")
	files, err := nrtm.JournalFiles(jdir)
	if err != nil || len(files) == 0 {
		t.Fatalf("no journal files (%v)", err)
	}
	// Routes sample as in reportd, so that the rings keep the traces
	// under test.
	p := &Process{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Registry: telemetry.NewRegistry("vocabulary"),
		Tracer: trace.New(trace.Config{Sample: map[string]int{"verify": 1024, "compile": 1024}})}
	e := NewEngine(p, nil)
	if err := e.Boot(dir, filepath.Join(dir, "as-rel.txt"), filepath.Join(dir, "routes.txt"), true); err != nil {
		t.Fatal(err)
	}
	e.Mirror(dir, jdir, 5*time.Millisecond)
	for deadline := time.Now().Add(30 * time.Second); e.store.Swaps() < uint64(1+len(files)); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			p.Stop()
			t.Fatalf("%d swaps, want one per journal file after the boot: %d", e.store.Swaps(), 1+len(files))
		}
	}
	p.Stop()

	want := map[string][]string{
		"boot": {"core.load_rels", "core.load_routes", "core.load_dumps", "irr.index",
			"verify.init", "reportstore.build", "reportstore.swap"},
		"step":          {"verify.reverify", "reportstore.build", "reportstore.swap"},
		"journal-apply": {"nrtm.read", "nrtm.apply"},
	}
	found := map[string]bool{}
	for _, tr := range append(p.Tracer.Recent(), p.Tracer.Slowest()...) {
		ex := tr.Export()
		name := map[uint32]string{}
		for _, sp := range ex.Spans {
			name[sp.ID] = sp.Name
			if strings.Contains(sp.Name, ".") && !layers[sp.Name] {
				t.Errorf("trace %d: span %q is dotted but %s_s is no per_layer row of BENCHMARK.json", ex.ID, sp.Name, sp.Name)
			}
		}
		children := map[string]map[string]bool{}
		for _, sp := range ex.Spans {
			if children[name[sp.Parent]] == nil {
				children[name[sp.Parent]] = map[string]bool{}
			}
			children[name[sp.Parent]][sp.Name] = true
		}
		for parent, rows := range want {
			if _, ok := children[parent]; !ok {
				continue
			}
			found[parent] = true
			for _, row := range rows {
				if !children[parent][row] {
					t.Errorf("trace %d: %q has no %q child (has %v)", ex.ID, parent, row, children[parent])
				}
			}
		}
	}
	for parent := range want {
		if !found[parent] {
			t.Errorf("no retained trace has a %q span", parent)
		}
	}
}

// writeReports writes what `verify -json` writes for the corpus in dir.
func writeReports(t *testing.T, dir, path string) {
	t.Helper()
	x, _, err := core.LoadDumpDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	rels, err := core.LoadRels(filepath.Join(dir, "as-rel.txt"))
	if err != nil {
		t.Fatal(err)
	}
	routes, err := core.LoadRoutes(filepath.Join(dir, "routes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	_, v := core.BuildFromIR(x, rels, verify.Config{})
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := report.WriteJSONL(f, v.VerifyAll(routes, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
