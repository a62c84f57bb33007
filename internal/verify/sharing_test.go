// Tests for the bulk drivers' suffix sharing and for the arena tallies
// behind verify.Metrics: what is shared is exactly what a keyed memo
// would share, at any partition count, and the exported counters are
// exact however the routes were verified.
package verify_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"rpslyzer/internal/aspa"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/report"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// sweepWork is what one bulk sweep over routes must do, counted the
// way a keyed memo would: every (prefix, communities, deduplicated
// origin-side suffix) key is evaluated once and repeated thereafter;
// an evaluated check executes a program when its AS has an aut-num
// with rules in the check's direction.
type sweepWork struct {
	verified, ignored int
	pairs, repeats    int
	execs             int
}

// hasRules reports whether a check evaluated by asn in the given
// direction runs asn's compiled program.
func hasRules(db *irr.Database, asn ir.ASN, dir ir.Direction) bool {
	an, ok := db.AutNum(asn)
	if !ok {
		return false
	}
	if dir == ir.DirExport {
		return len(an.Exports) > 0
	}
	return len(an.Imports) > 0
}

func countSweep(db *irr.Database, routes []bgpsim.Route, share bool) sweepWork {
	var w sweepWork
	seen := make(map[string]struct{})
	for _, r := range routes {
		path := aspa.DedupePrepends(r.Path)
		if r.HasASSet || len(path) <= 1 {
			w.ignored++
			continue
		}
		w.verified++
		for i := len(path) - 2; i >= 0; i-- {
			w.pairs++
			key := fmt.Sprint(r.Prefix, r.Communities, path[i:])
			if _, ok := seen[key]; ok && share {
				w.repeats++
				continue
			}
			seen[key] = struct{}{}
			if hasRules(db, path[i+1], ir.DirExport) {
				w.execs++
			}
			if hasRules(db, path[i], ir.DirImport) {
				w.execs++
			}
		}
	}
	return w
}

// checkCounters holds m to the work counted in w; exact program-cache
// hits are only defined without concurrent compiles, so they are
// checked when single is set.
func checkCounters(t *testing.T, what string, m *verify.Metrics, w sweepWork, reports []verify.RouteReport, single bool) {
	t.Helper()
	if got := m.RoutesVerified.Value(); got != int64(w.verified) {
		t.Errorf("%s: routes_total = %d, want %d", what, got, w.verified)
	}
	if got := m.RoutesIgnored.Value(); got != int64(w.ignored) {
		t.Errorf("%s: routes_ignored_total = %d, want %d", what, got, w.ignored)
	}
	if got := m.ChecksEvaluated.Value(); got != int64(2*w.pairs) {
		t.Errorf("%s: checks_total = %d, want %d", what, got, 2*w.pairs)
	}
	if got := m.PairMemoHits.Value(); got != int64(w.repeats) {
		t.Errorf("%s: pair_memo_hits_total = %d, want %d", what, got, w.repeats)
	}
	byStatus := make(map[string]int64)
	for _, rep := range reports {
		for _, c := range rep.Checks {
			byStatus[c.Status.String()]++
		}
	}
	for st := verify.Verified; st <= verify.Unverified; st++ {
		if got, want := m.ChecksByStatus.Value(st.String()), byStatus[st.String()]; got != want {
			t.Errorf("%s: checks_by_status{%s} = %d, want %d", what, st, got, want)
		}
	}
	if single {
		if got, want := m.ProgramCacheHits.Value(), int64(w.execs)-m.ProgramsCompiled.Value(); got != want {
			t.Errorf("%s: program_cache_hits_total = %d, want %d executions - %d compiles", what, got, w.execs, m.ProgramsCompiled.Value())
		}
	}
}

func renderAll(t *testing.T, reports []verify.RouteReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.WriteJSONL(&buf, reports); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharingMatchesKeyedMemo runs the bulk drivers over several
// generated universes at 1, 2 and 8 partitions: the pairs a sweep
// copies are exactly the repeated keys, the counters are exact, and
// the reports are those of VerifyRoute, which shares nothing.
func TestSharingMatchesKeyedMemo(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		sys, err := core.BuildSynthetic(core.Options{Seed: seed, ASes: 80, Collectors: 3})
		if err != nil {
			t.Fatal(err)
		}
		routes := sys.CollectRoutes(3, seed)
		w := countSweep(sys.DB, routes, true)
		if w.repeats == 0 || w.ignored == 0 {
			t.Fatalf("seed %d: corpus has %d repeated keys and %d ignored routes; the test needs both", seed, w.repeats, w.ignored)
		}

		oracle := verify.New(sys.DB, sys.Rels, verify.Config{})
		om := verify.NewMetrics(telemetry.NewRegistry("oracle"))
		oracle.SetMetrics(om)
		want := make([]verify.RouteReport, len(routes))
		for i := range routes {
			want[i] = oracle.VerifyRoute(routes[i])
		}
		checkCounters(t, fmt.Sprintf("seed %d VerifyRoute", seed), om, countSweep(sys.DB, routes, false), want, true)
		wantJSON := renderAll(t, want)
		wantSet := make(map[string]int)
		for _, rep := range want {
			wantSet[rep.Route.Prefix.String()+"|"+renderReport(rep)]++
		}

		for _, shards := range []int{1, 2, 8} {
			what := fmt.Sprintf("seed %d shards %d", seed, shards)
			v := verify.New(sys.DB, sys.Rels, verify.Config{Shards: shards})
			m := verify.NewMetrics(telemetry.NewRegistry("all"))
			v.SetMetrics(m)
			got := v.VerifyAll(routes, 0)
			if !bytes.Equal(renderAll(t, got), wantJSON) {
				t.Fatalf("%s: VerifyAll differs from VerifyRoute", what)
			}
			checkCounters(t, what+" VerifyAll", m, w, got, shards == 1)

			v = verify.New(sys.DB, sys.Rels, verify.Config{Shards: shards})
			m = verify.NewMetrics(telemetry.NewRegistry("stream"))
			v.SetMetrics(m)
			gotSet := make(map[string]int)
			var streamed []verify.RouteReport
			v.VerifyStream(routes, 0, func(rep verify.RouteReport) {
				gotSet[rep.Route.Prefix.String()+"|"+renderReport(rep)]++
				streamed = append(streamed, rep)
			})
			if len(streamed) != len(routes) {
				t.Fatalf("%s: VerifyStream delivered %d reports for %d routes", what, len(streamed), len(routes))
			}
			for key, n := range wantSet {
				if gotSet[key] != n {
					t.Fatalf("%s: VerifyStream delivered %d of %q, want %d", what, gotSet[key], key, n)
				}
			}
			checkCounters(t, what+" VerifyStream", m, w, streamed, shards == 1)
		}
	}
}

// TestVerifyAllStoresEachListOnce: the driver that keeps every report
// hands an equal reason list out as one backing array per partition.
// The stream and the single-route call keep no table, so they alias only
// what copying a predecessor's pairs always did: no array serves two
// prefixes in a stream, and none serves two checks of single calls.
func TestVerifyAllStoresEachListOnce(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 1, ASes: 80, Collectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(3, 1)
	type tally struct{ lists, arrays, contents, crossPrefix int }
	count := func(reports []verify.RouteReport) tally {
		var n tally
		first := make(map[*verify.Reason]int) // array -> the report it was first seen in
		contents := make(map[string]bool)
		for i := range reports {
			for _, c := range reports[i].Checks {
				if len(c.Reasons) == 0 {
					continue
				}
				n.lists++
				contents[fmt.Sprint(c.Reasons)] = true
				if j, seen := first[&c.Reasons[0]]; !seen {
					first[&c.Reasons[0]] = i
				} else if reports[j].Route.Prefix != reports[i].Route.Prefix {
					n.crossPrefix++
				}
			}
		}
		n.arrays, n.contents = len(first), len(contents)
		return n
	}
	for _, shards := range []int{1, 3} {
		v := verify.New(sys.DB, sys.Rels, verify.Config{Shards: shards})
		all := count(v.VerifyAll(routes, 0))
		if all.arrays > all.contents*shards || all.crossPrefix == 0 {
			t.Errorf("shards %d: VerifyAll keeps %d lists of %d distinct contents in %d arrays, want at most %d",
				shards, all.lists, all.contents, all.arrays, all.contents*shards)
		}
		var streamed []verify.RouteReport
		v.VerifyStream(routes, 0, func(rep verify.RouteReport) { streamed = append(streamed, rep) })
		if s := count(streamed); s.crossPrefix != 0 || s.lists != all.lists {
			t.Errorf("shards %d: VerifyStream handed out %d of %d lists from an array another prefix has", shards, s.crossPrefix, s.lists)
		}
	}
	v := verify.New(sys.DB, sys.Rels, verify.Config{})
	var single []verify.RouteReport
	for _, r := range routes[:200] {
		single = append(single, v.VerifyRoute(r), v.VerifyRoute(r))
	}
	if s := count(single); s.arrays != s.lists || s.lists == 0 {
		t.Errorf("VerifyRoute: %d lists in %d arrays, want one each", s.lists, s.arrays)
	}
}

// TestCountersAdvanceDuringSweep takes its scrapes from inside a
// running stream: the partition flushes its tally every 1024 routes,
// so a scrape mid-sweep sees most of the routes verified so far, not
// zero and not the total.
func TestCountersAdvanceDuringSweep(t *testing.T) {
	sys, routes := diffCorpus(t)
	const flush = 1024
	if len(routes) < 8*flush {
		t.Fatalf("corpus has %d routes; the test needs a sweep of several flushes", len(routes))
	}
	v := verify.New(sys.DB, sys.Rels, verify.Config{Shards: 1})
	m := verify.NewMetrics(telemetry.NewRegistry("advance"))
	v.SetMetrics(m)
	// One partition, whose reports wait for the sink in a channel of
	// four: when the sink holds report n the partition has verified at
	// most n+5 routes and flushed all but the last partial interval.
	delivered := 0
	v.VerifyStream(routes, 0, func(verify.RouteReport) {
		delivered++
		if delivered%flush != 0 || delivered > 6*flush {
			return
		}
		seen := m.RoutesVerified.Value() + m.RoutesIgnored.Value()
		if seen < int64(delivered) || seen > int64(delivered+5) {
			t.Errorf("after %d reports the counters show %d routes", delivered, seen)
		}
	})
	if got := m.RoutesVerified.Value() + m.RoutesIgnored.Value(); got != int64(len(routes)) {
		t.Errorf("after the sweep the counters show %d routes, want %d", got, len(routes))
	}
}

// TestCountersExactAfterReverify: an incremental step that patches
// routes check by check counts each dirty route once and only the
// checks it re-evaluated, from every worker.
func TestCountersExactAfterReverify(t *testing.T) {
	sys, routes := diffCorpus(t)
	target := pickPolicyAS(t)
	inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inc.Init(routes, 0)
	m := verify.NewMetrics(telemetry.NewRegistry("reverify"))
	inc.Verifier().SetMetrics(m)

	db2 := sys.DB.Clone()
	changed := *db2.IR.AutNums[target]
	changed.Imports = nil
	db2.IR.AutNums[target] = &changed
	res := inc.Reverify(db2, []depgraph.Key{depgraph.AutNumKey(target)}, 4, nil)
	if res.Patched == 0 || res.Patched != res.Routes {
		t.Fatalf("step patched %d of %d dirty routes; the test wants a pure patch step", res.Patched, res.Routes)
	}
	// Only the target's import rules changed, so on every dirty route
	// exactly the import checks the target evaluates were re-run.
	reports := inc.Reports()
	var rerun int64
	byStatus := make(map[verify.Status]int64)
	for _, i := range res.Dirty {
		for _, c := range reports[i].Checks {
			if c.Dir == ir.DirImport && c.To == target {
				rerun++
				byStatus[c.Status]++
			}
		}
	}
	if got := m.RoutesVerified.Value(); got != int64(res.Routes) {
		t.Errorf("routes_total = %d, want the %d dirty routes", got, res.Routes)
	}
	if got := m.ChecksEvaluated.Value(); got != rerun || rerun == 0 {
		t.Errorf("checks_total = %d, want the %d re-evaluated checks", got, rerun)
	}
	for st := verify.Verified; st <= verify.Unverified; st++ {
		if got := m.ChecksByStatus.Value(st.String()); got != byStatus[st] {
			t.Errorf("checks_by_status{%s} = %d, want %d", st, got, byStatus[st])
		}
	}
	if got := m.PairMemoHits.Value(); got != 0 {
		t.Errorf("pair_memo_hits_total = %d after a patch step, want 0", got)
	}
}

// TestProfilerSamplesPerArena: with SetRouteSample(1) every verified
// route is observed, through any driver; at the default rate the first
// route of every arena is, so even single VerifyRoute calls feed the
// sketches.
func TestProfilerSamplesPerArena(t *testing.T) {
	sys, routes := diffCorpus(t)
	routes = routes[:4000]
	w := countSweep(sys.DB, routes, true)
	observed := func(p *verify.Profiler) int {
		n := 0
		for _, e := range p.SlowASes.Top(0) {
			n += int(e.Count)
		}
		return n
	}

	for _, drive := range []struct {
		name string
		run  func(v *verify.Verifier)
	}{
		{"VerifyAll", func(v *verify.Verifier) { v.VerifyAll(routes, 4) }},
		{"VerifyStream", func(v *verify.Verifier) {
			var mu sync.Mutex
			v.VerifyStream(routes, 4, func(verify.RouteReport) { mu.Lock(); mu.Unlock() })
		}},
		{"VerifyRoute", func(v *verify.Verifier) {
			for _, r := range routes {
				v.VerifyRoute(r)
			}
		}},
	} {
		v := verify.New(sys.DB, sys.Rels, verify.Config{})
		p := verify.NewProfiler(len(routes)) // roomy: no key is ever evicted
		p.SetRouteSample(1)
		v.SetProfiler(p)
		drive.run(v)
		if got := observed(p); got != w.verified {
			t.Errorf("%s with SetRouteSample(1): %d routes observed, want all %d verified", drive.name, got, w.verified)
		}
	}

	v := verify.New(sys.DB, sys.Rels, verify.Config{})
	p := verify.NewProfiler(len(routes))
	m := verify.NewMetrics(telemetry.NewRegistry("sampled"))
	v.SetProfiler(p)
	v.SetMetrics(m)
	for _, r := range routes[:100] {
		v.VerifyRoute(r)
	}
	verified := countSweep(sys.DB, routes[:100], false).verified
	if got := observed(p); got != verified {
		t.Errorf("100 single VerifyRoute calls at the default rate: %d routes observed, want %d (the first of every arena)", got, verified)
	}
	if got := m.RouteSeconds.Count(); got != 100 {
		t.Errorf("route_seconds count = %d after 100 single calls, want 100 samples", got)
	}
	if m.CheckSeconds.Count() == 0 || m.ProgramSeconds.Count() == 0 {
		t.Errorf("check_seconds has %d samples and program_exec_seconds %d, want some", m.CheckSeconds.Count(), m.ProgramSeconds.Count())
	}
}
