package rpslyzer

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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
	docTest   = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z]\w*\*?`)
	declTest  = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	docDir    = regexp.MustCompile(`\b(?:cmd|examples)/[a-z0-9_]+`)

	// Code in a document: a fenced block, else a backticked span. In it a
	// package-qualified exported name; the lowercase pkg.name the docs
	// write are the benchmark's layer rows (core.load_dumps), not Go.
	docFence = regexp.MustCompile("(?s)```.*?```")
	docSpan  = regexp.MustCompile("`[^`]+`")
	docIdent = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)`)

	// A README section heading names its command first in backticks, a
	// flag-table row its flags (`-name` or `-name ARG`) in the first cell,
	// and a flag-defining call is one of the flag package's definers.
	docSectionCmd = regexp.MustCompile("^## [^`]*`([a-z]+)")
	docFlag       = regexp.MustCompile("`-([a-z][a-z0-9-]*)[` ]")
	flagCall      = regexp.MustCompile(`^(?:String|Int|Int64|Uint|Uint64|Bool|Float64|Duration|Text|Func|BoolFunc)?(?:Var)?$`)

	// The documents that name tests, commands and examples.
	citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "scripts/verify.sh"}
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
	if err := e.Boot(dir, filepath.Join(dir, "as-rel.txt"), filepath.Join(dir, "routes.txt"), true); err != nil {
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

// TestDocsNameDeclaredTests holds every Test…, Fuzz… or Benchmark… name
// that citingDocs cite to a declaration in some _test.go file (a name
// ending in * to at least one declaration it prefixes): a test deleted
// or renamed and left in the docs fails here, and so does a CI step
// that would run it by name and match nothing.
func TestDocsNameDeclaredTests(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Name() == ".git" {
			return fs.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range declTest.FindAllSubmatch(src, -1) {
				declared[string(m[1])] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := func(prefix string) bool {
		for name := range declared {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
		return false
	}
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range docTest.FindAllString(string(raw), -1) {
			if prefix, ok := strings.CutSuffix(name, "*"); ok && !prefixes(prefix) || !ok && !declared[name] {
				t.Errorf("%s names %s, which no _test.go file declares", doc, name)
			}
		}
	}
}

// TestDocsNameDeclaredIdents holds every pkg.Name in the code of
// citingDocs (fenced blocks and backticked spans) whose pkg is a
// directory under internal/ to a top-level func, type, var or const, or
// a method, declared in that package's non-test files: a function
// renamed or deleted and left in the docs fails here.
func TestDocsNameDeclaredIdents(t *testing.T) {
	declared := map[string]map[string]bool{} // directory under internal/ → names its package declares
	files, err := filepath.Glob(filepath.Join("internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, goparser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg := filepath.Base(filepath.Dir(file))
		if declared[pkg] == nil {
			declared[pkg] = map[string]bool{}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl: // functions and methods
				declared[pkg][d.Name.Name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[pkg][s.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[pkg][n.Name] = true
						}
					}
				}
			}
		}
	}
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		code := docFence.FindAllString(string(raw), -1)
		code = append(code, docSpan.FindAllString(docFence.ReplaceAllString(string(raw), ""), -1)...)
		for _, c := range code {
			for _, m := range docIdent.FindAllStringSubmatch(c, -1) {
				if names, ok := declared[m[1]]; ok && !names[m[2]] {
					t.Errorf("%s names %s, which internal/%s does not declare", doc, m[0], m[1])
				}
			}
		}
	}
}

// TestDocsNameDeclaredFlags holds every flag in a README flag-table row
// to a declaration in the cmd/<name>/main.go of the command the row's
// section heading names first: a flag deleted from a command and left
// in its table fails here. A declaration is the first string literal of
// a flag-defining call (flag.String, fs.IntVar, ...).
func TestDocsNameDeclaredFlags(t *testing.T) {
	declared := func(cmd string) map[string]bool {
		f, err := goparser.ParseFile(token.NewFileSet(), filepath.Join("cmd", cmd, "main.go"), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !flagCall.MatchString(sel.Sel.Name) {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err != nil {
						t.Fatal(err)
					}
					names[name] = true
					break
				}
			}
			return true
		})
		return names
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var cmd string
	var flags map[string]bool
	rows, inTable := 0, false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "## ") {
			cmd, flags = "", nil
			if m := docSectionCmd.FindStringSubmatch(line); m != nil {
				cmd = m[1]
			}
		}
		if !strings.HasPrefix(line, "|") {
			inTable = false
			continue
		}
		cells := strings.Split(line, "|")
		if strings.TrimSpace(cells[1]) == "Flag" {
			if cmd == "" {
				t.Fatalf("README.md: a flag table under a heading that names no command: %s", line)
			}
			inTable, flags = true, declared(cmd)
			continue
		}
		if !inTable {
			continue
		}
		for _, m := range docFlag.FindAllStringSubmatch(cells[1], -1) {
			rows++
			if !flags[m[1]] {
				t.Errorf("README.md's %s flag table names -%s, which cmd/%s/main.go does not declare", cmd, m[1], cmd)
			}
		}
	}
	if rows == 0 {
		t.Fatal("README.md has no flag-table row naming a flag")
	}
}

// TestDocsNameExistingDirs holds every cmd/<name> and examples/<name>
// that citingDocs cite to a directory: a command or example deleted and
// left in the docs fails here.
func TestDocsNameExistingDirs(t *testing.T) {
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, dir := range docDir.FindAllString(string(raw), -1) {
			if st, err := os.Stat(dir); err != nil || !st.IsDir() {
				t.Errorf("%s names %s, which is not a directory", doc, dir)
			}
		}
	}
}
