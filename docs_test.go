package rpslyzer

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/whois"
)

var (
	// A metric name as the docs write one: whole, with a {a,b} choice,
	// with a * wildcard, or cut after an underscore to name a family.
	docMetric = regexp.MustCompile(`rpslyzer_(?:[a-z0-9_]|\*|\{[a-z0-9_,]+\})*`)
	docDebug  = regexp.MustCompile(`/debug/[a-z]+(?:/[a-z]+)*/?`)
	docChoice = regexp.MustCompile(`\{([a-z0-9_,]+)\}`)
)

// TestDocsNameWhatIsServed holds the operator-facing documents to the
// running system: every rpslyzer_* metric name and every /debug/ path
// README.md, DESIGN.md and the verify skill mention is one that a
// process wired as reportd -mirror, whoisd and rpslyzer are — daemon.Start's
// endpoint, the engine, the mirror loop, the API, whois and pipeline
// metrics — serves. A name written with * or cut after an underscore
// must match at least one served name. A metric or endpoint deleted
// from the code and left in the docs fails here.
func TestDocsNameWhatIsServed(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 3, ASes: 120})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := core.WriteUniverse(sys, sys.CollectRoutes(2, 3), dir); err != nil {
		t.Fatal(err)
	}
	p := daemon.Start("docs_test", "error", "verify=1024,compile=16", "127.0.0.1:0")
	defer p.Stop()
	e := daemon.NewEngine(p, trace.NewWatchdog(trace.WatchdogConfig{}))
	if err := e.Boot(dir, filepath.Join(dir, "as-rel.txt"), filepath.Join(dir, "routes.txt"), 2, true); err != nil {
		t.Fatal(err)
	}
	e.Mirror(dir, t.TempDir(), time.Hour)
	h := api.NewServer(e.Store(), api.Config{Tracer: p.Tracer}, api.NewMetrics(p.Registry)).Handler()
	for _, path := range []string{"/v1/summary", "/v1/ases", "/healthz"} {
		doReq(h, path) // per-endpoint instruments register on first use
	}
	parser.NewPipelineMetrics(p.Registry)
	whois.NewMetrics(p.Registry)

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + p.MetricsAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	_, exposition := get("/metrics")
	served := map[string]bool{}
	for _, line := range strings.Split(exposition, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			served[f[2]] = true
			if f[3] == "histogram" {
				served[f[2]+"_bucket"], served[f[2]+"_sum"], served[f[2]+"_count"] = true, true, true
			}
		}
	}
	matches := func(pattern string) bool {
		re := regexp.MustCompile("^" + strings.ReplaceAll(pattern, "*", "[a-z0-9_]*") + "$")
		for name := range served {
			if re.MatchString(name) {
				return true
			}
		}
		return false
	}

	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docMetric.FindAllString(string(raw), -1) {
			patterns := []string{name}
			if m := docChoice.FindStringSubmatch(name); m != nil {
				patterns = nil
				for _, alt := range strings.Split(m[1], ",") {
					patterns = append(patterns, strings.Replace(name, m[0], alt, 1))
				}
			}
			for _, pattern := range patterns {
				if strings.HasSuffix(pattern, "_") {
					pattern += "*"
				}
				if !matches(pattern) {
					t.Errorf("%s names %s, which no served metric matches", doc, pattern)
				}
			}
		}
		for _, path := range docDebug.FindAllString(string(raw), -1) {
			if code, _ := get(path); code == http.StatusNotFound {
				t.Errorf("%s names %s, which the metrics endpoint answers 404", doc, path)
			}
		}
	}
}
