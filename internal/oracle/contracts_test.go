package oracle

import (
	"bytes"
	"fmt"
	"maps"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"rpslyzer/internal/api"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/render"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
	"rpslyzer/internal/whois"
)

const (
	c1 = "C1 load"
	c2 = "C2 compiled≡reference"
	c3 = "C3 bulk drivers"
	c4 = "C4 sharded≡unsharded"
	c5 = "C5 incremental≡full"
	c6 = "C6 mirrored≡reparsed"
	c7 = "C7 store"
)

// pass is one draw's run through the contracts, in order: load (C1)
// reads the universe back from disk, base (C2–C4) verifies it every
// way, steps (C5–C7) evolves it through the mirror and the engine.
type pass struct {
	t   *testing.T
	d   draw
	dir string

	evolved  *ir.IR // the generator's IR, which irrgen evolves
	rels     *asrel.Database
	routes   []bgpsim.Route
	db1, dbN *irr.Database        // the one-worker load, the drawn workers'
	fresh    []verify.RouteReport // a fresh VerifyAll at the drawn shards, of the latest database
}

// fail stops the run at the first divergence, naming the contract, the
// draw and the command that writes its universe.
func (p *pass) fail(contract, format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("%s: %s\ndraw %+v\nreplay: %s", contract, fmt.Sprintf(format, args...), p.d, p.d.replay())
}

func (p *pass) cfg(shards int) verify.Config {
	cfg := p.d.cfg
	cfg.Shards = shards
	return cfg
}

// reference verifies every route over db through the whole-route
// reference verifier (reference_test.go), which C2 holds the compiled
// engine to.
func (p *pass) reference(db *irr.Database) []verify.RouteReport {
	return newReference(db, p.rels, p.d.cfg).verifyAll(p.routes)
}

// load is C1. The universe goes to disk as cmd/irrgen writes it and
// comes back through the pipeline twice: on one worker in default
// chunks, the reference, and at the drawn worker count in 2 KiB chunks,
// which moves every chunk boundary and reorders the results. The two
// must be deeply equal, and the canonical text must reparse to itself.
// Each load is indexed into one of the two databases base compares.
func (p *pass) load() {
	sys, err := core.BuildSynthetic(core.Options{Seed: p.d.seed, ASes: p.d.ases})
	if err != nil {
		p.t.Fatal(err)
	}
	p.evolved = sys.IR
	if err := core.WriteUniverse(sys, sys.CollectRoutes(p.d.collectors, p.d.seed), p.dir); err != nil {
		p.t.Fatal(err)
	}
	if p.rels, err = core.LoadRels(filepath.Join(p.dir, "as-rel.txt")); err != nil {
		p.t.Fatal(err)
	}
	if p.routes, err = core.LoadRoutes(filepath.Join(p.dir, "routes.txt")); err != nil {
		p.t.Fatal(err)
	}

	seq, seqSizes, err := core.LoadDumpDirOpts(p.dir, core.LoadOptions{Workers: 1})
	if err != nil {
		p.t.Fatal(err)
	}
	m := parser.NewPipelineMetrics(telemetry.NewRegistry("oracle"))
	par, parSizes, err := core.LoadDumpDirOpts(p.dir, core.LoadOptions{
		Workers:   p.d.workers,
		ChunkSize: 2 << 10,
		Stats:     &parser.LoadStats{Metrics: m},
	})
	if err != nil {
		p.t.Fatal(err)
	}
	if !reflect.DeepEqual(seqSizes, parSizes) {
		p.fail(c1, "dump sizes: one worker %v, %d workers %v", seqSizes, p.d.workers, parSizes)
	}
	if !reflect.DeepEqual(seq, par) {
		sv, pv := reflect.ValueOf(seq).Elem(), reflect.ValueOf(par).Elem()
		for i := 0; i < sv.NumField(); i++ {
			if !reflect.DeepEqual(sv.Field(i).Interface(), pv.Field(i).Interface()) {
				p.fail(c1, "IR.%s differs between the load on one worker and on %d in 2 KiB chunks", sv.Type().Field(i).Name, p.d.workers)
			}
		}
	}
	if m.BytesParsed.Value() == 0 || m.ObjectsParsed.Value() == 0 || m.ChunksParsed.Value() == 0 {
		p.fail(c1, "pipeline stats not threaded: bytes=%d objects=%d chunks=%d",
			m.BytesParsed.Value(), m.ObjectsParsed.Value(), m.ChunksParsed.Value())
	}
	text := render.IR(par)
	if diff := textDiff(render.IR(reparse(text, p.d.workers)), text); diff != "" {
		p.fail(c1, "render → reparse → render is not a fixed point: %s", diff)
	}
	p.db1, p.dbN = irr.New(seq), irr.New(par)
}

// base is C2–C4 on the loaded universe. The reference is one partition
// of the compiled engine over the one-worker load.
func (p *pass) base() {
	d := p.d
	ref := verify.New(p.db1, p.rels, p.cfg(1)).VerifyAll(p.routes, 1)
	refJSONL := jsonl(p.t, ref)

	p.same(c2, "the reference verifier", p.reference(p.db1), ref)

	p.fresh = verify.New(p.dbN, p.rels, p.cfg(d.shards)).VerifyAll(p.routes, d.workers)
	p.sameJSONL(c4, fmt.Sprintf("VerifyAll at %d shards", d.shards), jsonl(p.t, p.fresh), refJSONL)
	one, many := whois.NewServer(p.db1), whois.NewServer(p.dbN)
	for _, q := range whoisQueries(p.dbN.IR) {
		if got, want := many.Query(q), one.Query(q); got != want {
			p.fail(c4, "whois %q at %d shards:\n got: %q\nwant: %q", q, d.shards, got, want)
		}
	}

	// Without Shards the drivers partition by their workers argument,
	// and 0 means GOMAXPROCS.
	for _, workers := range []int{d.workers, 0} {
		p.same(c3, fmt.Sprintf("VerifyAll(routes, %d) without Shards", workers),
			verify.New(p.dbN, p.rels, d.cfg).VerifyAll(p.routes, workers), ref)
	}
	// VerifyStream serializes its sink calls and returns after the last.
	var streamed []verify.RouteReport
	verify.New(p.dbN, p.rels, p.cfg(d.shards)).VerifyStream(p.routes, d.workers, func(rep verify.RouteReport) {
		streamed = append(streamed, rep)
	})
	p.sameJSONL(c3, fmt.Sprintf("VerifyStream at %d shards, lines sorted", d.shards),
		sortedLines(jsonl(p.t, streamed)), sortedLines(refJSONL))
	p.kinds(c3, fmt.Sprintf("VerifyStream at %d shards", d.shards), streamed)
	v := verify.New(p.dbN, p.rels, p.cfg(d.shards))
	single := make([]verify.RouteReport, len(p.routes))
	for i, r := range p.routes {
		single[i] = v.VerifyRoute(r)
	}
	p.same(c3, "VerifyRoute route by route", single, ref)
}

// steps is C5–C7: the draw's evolution, as journal files written and
// read back, applied to a mirror of the drawn workers' load, with the
// incremental engine re-verifying each apply.
func (p *pass) steps() {
	d := p.d
	jdir := filepath.Join(p.dir, "journals")
	if err := os.Mkdir(jdir, 0o755); err != nil {
		p.t.Fatal(err)
	}
	mir := nrtm.NewMirrorDB(p.dbN, nil, nil)
	inc, err := verify.NewIncremental(mir.DB(), p.rels, p.cfg(d.shards))
	if err != nil {
		p.t.Fatal(err)
	}
	p.same(c5, "Init", inc.Init(p.routes, d.workers), p.fresh)
	p.store("after Init", inc.Reports(), d.steps == 0)

	cfg := irrgen.EvolveConfig{Seed: d.seed, PolicyChurnFrac: d.churn, SetChurnFrac: d.churn,
		RouteAddFrac: d.churn / 2, RouteWithdrawFrac: d.churn / 2}
	serials := make(map[string]uint64)
	prev := p.evolved
	for step := 1; step <= d.steps; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		var journals []*nrtm.Journal
		var names []string
		for _, j := range evolve.Compare(prev, next).ToJournals(prev, next, serials) {
			name := fmt.Sprintf("%06d.%s.nrtm", step, j.Registry)
			path := filepath.Join(jdir, name)
			if err := nrtm.WriteJournalFile(path, j); err != nil {
				p.t.Fatal(err)
			}
			read, err := nrtm.ReadJournalFile(path)
			if err != nil {
				p.fail(c6, "%s does not read back: %v", name, err)
			}
			journals, names = append(journals, read), append(names, name)
		}

		resync := d.resync && step == (d.steps+1)/2
		batches, what := [][]*nrtm.Journal{journals}, []string{fmt.Sprintf("step %d (%d journals in one batch)", step, len(journals))}
		if d.perRegistry && !resync {
			batches, what = nil, nil
			for i, j := range journals {
				batches, what = append(batches, []*nrtm.Journal{j}), append(what, fmt.Sprintf("step %d, %s", step, names[i]))
			}
		}
		for i, batch := range batches {
			keys, err := mir.ApplyAllKeys(batch)
			if err != nil {
				p.fail(c6, "%s: apply: %v", what[i], err)
			}
			if resync {
				keys = nil
			}
			if res := inc.Reverify(mir.DB(), keys, d.workers, nil); res.Full != resync || resync && res.Routes != len(p.routes) {
				p.fail(c5, "%s: Reverify with %d keys re-verified %d of %d routes, Full=%t", what[i], len(keys), res.Routes, len(p.routes), res.Full)
			}
			p.fresh = verify.New(mir.DB(), p.rels, p.cfg(d.shards)).VerifyAll(p.routes, d.workers)
			p.same(c5, what[i], inc.Reports(), p.fresh)
		}
		if diff := textDiff(render.IR(mir.DB().IR), render.IR(reparse(render.IR(next), d.workers).Clone())); diff != "" {
			p.fail(c6, "after step %d: %s", step, diff)
		}
		p.store(fmt.Sprintf("after step %d", step), inc.Reports(), step == d.steps)
		prev = next
	}
	for reg, want := range serials {
		if got := mir.Serials()[reg]; got != want {
			p.fail(c6, "%s serial %d after the journals, want %d", reg, got, want)
		}
	}

	p.same(c2, "the reference verifier on the mirrored database", p.reference(mir.DB()), p.fresh)

	if rec := inc.Reconcile(d.workers); rec.Drift != 0 {
		p.fail(c5, "Reconcile after %d steps: drift on %d of %d routes", d.steps, rec.Drift, rec.Routes)
	}
	p.same(c5, "Reconcile", inc.Reports(), p.fresh)
}

// store is C7 at one point of the run: the engine's reports, frozen,
// answer a sample of the API as fresh reports frozen do; with stream,
// so do the engine's reports after a trip through the JSONL export.
func (p *pass) store(at string, engine []verify.RouteReport, stream bool) {
	p.t.Helper()
	want := reportstore.BuildSnapshot(p.fresh)
	paths := samplePaths(want)
	wantBodies := serve(want, paths)
	check := func(what string, got *reportstore.Snapshot) {
		p.t.Helper()
		for i, body := range serve(got, paths) {
			if body != wantBodies[i] {
				p.fail(c7, "%s, %s: GET %s:\n got: %s\nwant: %s", at, what, paths[i], body, wantBodies[i])
			}
		}
	}
	check("the freeze of the engine's reports", reportstore.BuildSnapshot(engine))
	if stream {
		var read []verify.RouteReport
		if err := report.ReadJSONL(bytes.NewReader(jsonl(p.t, engine)), func(rep verify.RouteReport) { read = append(read, rep) }); err != nil {
			p.fail(c7, "%s: the engine's JSONL does not read back: %v", at, err)
		}
		check("the engine's reports through WriteJSONL → ReadJSONL", reportstore.BuildSnapshot(read))
	}
}

// same fails contract c at the first route where got departs from want,
// or where a check of either carries Kinds other than the kinds of its
// reasons. JSONL is a function of what it compares, so equal here is
// equal there.
func (p *pass) same(c, what string, got, want []verify.RouteReport) {
	p.t.Helper()
	p.kinds(c, what, got)
	p.kinds(c, what, want)
	if len(got) != len(want) {
		p.fail(c, "%s: %d reports, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := &got[i], &want[i]
		if g.Ignored != w.Ignored || len(g.Checks) != len(w.Checks) {
			p.fail(c, "%s: route %d %s %v: %d checks ignored %q, want %d ignored %q",
				what, i, w.Route.Prefix, w.Route.Path, len(g.Checks), g.Ignored, len(w.Checks), w.Ignored)
		}
		for k := range g.Checks {
			gc, wc := &g.Checks[k], &w.Checks[k]
			if gc.From != wc.From || gc.To != wc.To || gc.Dir != wc.Dir || gc.Status != wc.Status || !slices.Equal(gc.Reasons, wc.Reasons) {
				p.fail(c, "%s: route %d %s %v, check %d:\n got: %v\nwant: %v", what, i, w.Route.Prefix, w.Route.Path, k, *gc, *wc)
			}
		}
	}
}

// kinds fails contract c at the first check whose Kinds is not the kinds
// of its reasons. The freeze counts and indexes a check under its Kinds
// where they are set, so a wrong mask miscounts where JSONL shows none.
func (p *pass) kinds(c, what string, reports []verify.RouteReport) {
	p.t.Helper()
	for i := range reports {
		for k := range reports[i].Checks {
			if ch := &reports[i].Checks[k]; ch.Kinds != verify.KindsOf(ch.Reasons) {
				p.fail(c, "%s: route %d %s %v, check %d %v: Kinds %b, want %b",
					what, i, reports[i].Route.Prefix, reports[i].Route.Path, k, *ch, ch.Kinds, verify.KindsOf(ch.Reasons))
			}
		}
	}
}

func (p *pass) sameJSONL(c, what string, got, want []byte) {
	p.t.Helper()
	if !bytes.Equal(got, want) {
		p.fail(c, "%s: JSONL %s", what, lineDiff(string(got), string(want)))
	}
}

func sortedLines(b []byte) []byte {
	lines := bytes.SplitAfter(b, []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	return bytes.Join(lines, nil)
}

func jsonl(t *testing.T, reports []verify.RouteReport) []byte {
	var buf bytes.Buffer
	if err := report.WriteJSONL(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reparse parses per-registry dump texts in IRR priority order, as a
// client that fetched full dumps would.
func reparse(texts map[string]string, workers int) *ir.IR {
	var dumps []core.Dump
	for _, name := range irrgen.IRRs {
		if text, ok := texts[name]; ok {
			dumps = append(dumps, core.Dump{Name: name, R: strings.NewReader(text)})
		}
	}
	return core.ParseDumps(core.LoadOptions{Workers: workers, ChunkSize: 4 << 10}, dumps...)
}

// textDiff names the first registry and line where two renders differ.
func textDiff(got, want map[string]string) string {
	regs := maps.Clone(want)
	maps.Copy(regs, got)
	for _, reg := range slices.Sorted(maps.Keys(regs)) {
		if got[reg] != want[reg] {
			return fmt.Sprintf("registry %q %s", reg, lineDiff(got[reg], want[reg]))
		}
	}
	return ""
}

// lineDiff names the first line where got and want differ.
func lineDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("has %d lines, want %d", len(gl), len(wl))
}

// whoisQueries is a sweep over every server code path: aut-num renders,
// inverse-origin walks, per-origin route tables (!g), set renders and
// flattened membership (!i,1), and prefix searches in all four irrd
// modes plus plain coverage lookups.
func whoisQueries(x *ir.IR) []string {
	var qs []string
	for _, asn := range slices.Sorted(maps.Keys(x.AutNums)) {
		qs = append(qs, fmt.Sprintf("AS%d", uint32(asn)), fmt.Sprintf("-i origin AS%d", uint32(asn)), fmt.Sprintf("!gAS%d", uint32(asn)))
	}
	sets := slices.Sorted(maps.Keys(x.AsSets))
	for _, name := range sets[:min(50, len(sets))] {
		qs = append(qs, name, "!i"+name+",1")
	}
	seen := make(map[string]bool)
	for _, r := range x.Routes {
		if p := r.Prefix.String(); !seen[p] && len(seen) < 200 {
			seen[p] = true
			qs = append(qs, p, "!r"+p, "!r"+p+",o", "!r"+p+",L", "!r"+p+",M")
		}
	}
	return qs
}

// samplePaths is a bounded, deterministic sample of the API over snap:
// the summary, the first and a middle page of every listing, every
// status, reason and cause, and up to sixteen ASes.
func samplePaths(snap *reportstore.Snapshot) []string {
	paths := []string{"/v1/summary", "/v1/ases?limit=100", "/v1/reports?limit=50",
		fmt.Sprintf("/v1/reports?limit=50&page=%d", snap.NumChecks()/100)}
	for st := verify.Verified; st <= verify.Unverified; st++ {
		paths = append(paths, "/v1/reports?limit=20&status="+st.String(), "/v1/reverse/status/"+st.String())
	}
	for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
		paths = append(paths, "/v1/reports?limit=20&reason="+k.String(), "/v1/reverse/reason/"+k.String())
	}
	for c := report.Cause(0); c < report.NumCauses; c++ {
		paths = append(paths, "/v1/reverse/reason/"+c.String())
	}
	asns := snap.ASNs()
	for i := 0; i < len(asns); i += max(1, len(asns)/16) {
		paths = append(paths, fmt.Sprintf("/v1/as/%d/report?limit=20", asns[i]), fmt.Sprintf("/v1/as/%d/routes?limit=20", asns[i]))
	}
	return paths
}

var builtAt = regexp.MustCompile(`"built_at":"[^"]*"`)

// serve answers paths from snap through the API, each body prefixed by
// its status code and with the snapshot's wall-clock build time blanked.
func serve(snap *reportstore.Snapshot, paths []string) []string {
	store := reportstore.New(nil)
	store.Swap(snap)
	h := api.NewServer(store, api.Config{CacheEntries: -1}, nil).Handler()
	bodies := make([]string, len(paths))
	for i, path := range paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		bodies[i] = fmt.Sprintf("%d %s", rec.Code, builtAt.ReplaceAllString(rec.Body.String(), `"built_at":""`))
	}
	return bodies
}
