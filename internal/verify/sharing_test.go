// Tests for the bulk drivers' pair memo and for the arena tallies
// behind verify.Metrics: what the memo evaluates lies between what a
// memo keyed with the outcome and one keyed with the prefix would, the
// same at any partition count, and the exported counters are exact
// however the routes were verified.
package verify_test

import (
	"fmt"
	"sync"
	"testing"

	"rpslyzer/internal/aspa"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// sweepWork is what one sweep over routes must do. A pair's key is
// (family, communities, deduplicated path from the origin through the
// importer), its outcome its two checks. The pair memo evaluates a key
// once for each set of prefixes that agree on the tests the evaluation
// ran: at least once per outcome of the key, at most once per prefix.
// An evaluated check executes a program when its AS has an aut-num
// with rules in the check's direction.
type sweepWork struct {
	verified, ignored int
	pairs             int
	outcomes          int // distinct (key, outcome)
	prefixed          int // distinct (prefix, key)
	keyExecs          int // executions, each key evaluated once
	prefixExecs       int // executions, each (prefix, key) evaluated once
	execs             int // executions, every pair evaluated
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

// pairKey is the memo key of the pair whose importer is path[i].
func pairKey(r *bgpsim.Route, path []ir.ASN, i int) string {
	return fmt.Sprint(r.Prefix.IsIPv4(), r.Communities, path[i:])
}

// countSweep counts the work of a sweep over routes; reports are
// theirs, from VerifyRoute, or nil to count no outcomes.
func countSweep(db *irr.Database, routes []bgpsim.Route, reports []verify.RouteReport) sweepWork {
	var w sweepWork
	keys, outcomes, prefixed := make(map[string]bool), make(map[string]bool), make(map[string]bool)
	for n := range routes {
		r := &routes[n]
		path := aspa.DedupePrepends(r.Path)
		if r.HasASSet || len(path) <= 1 {
			w.ignored++
			continue
		}
		w.verified++
		for i, k := len(path)-2, 0; i >= 0; i, k = i-1, k+2 {
			w.pairs++
			execs := 0
			if hasRules(db, path[i+1], ir.DirExport) {
				execs++
			}
			if hasRules(db, path[i], ir.DirImport) {
				execs++
			}
			w.execs += execs
			key := pairKey(r, path, i)
			if !keys[key] {
				keys[key] = true
				w.keyExecs += execs
			}
			if reports != nil {
				outcomes[key+fmt.Sprint(reports[n].Checks[k:k+2])] = true
			}
			if pk := fmt.Sprint(r.Prefix, key); !prefixed[pk] {
				prefixed[pk] = true
				w.prefixExecs += execs
			}
		}
	}
	w.outcomes, w.prefixed = len(outcomes), len(prefixed)
	return w
}

// checkCounters holds m to the work counted in w, for a driver with
// the pair memo or without. Exact program-cache hits are only defined
// without concurrent compiles, so they are checked when single is set;
// with the memo, executions are bounded as evaluations are.
func checkCounters(t *testing.T, what string, m *verify.Metrics, w sweepWork, reports []verify.RouteReport, memo, single bool) {
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
	hits := m.PairMemoHits.Value()
	if evals := int64(w.pairs) - hits; memo && (evals < int64(w.outcomes) || evals > int64(w.prefixed)) {
		t.Errorf("%s: pair_memo_hits_total = %d leaves %d evaluations, want between %d (key, outcome) and %d (prefix, key) groups",
			what, hits, evals, w.outcomes, w.prefixed)
	} else if !memo && hits != 0 {
		t.Errorf("%s: pair_memo_hits_total = %d, want 0", what, hits)
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
	if !single {
		return
	}
	execs := m.ProgramCacheHits.Value() + m.ProgramsCompiled.Value()
	switch {
	case !memo && execs != int64(w.execs):
		t.Errorf("%s: program_cache_hits_total + compiles = %d, want %d executions", what, execs, w.execs)
	case memo && (execs < int64(w.keyExecs) || execs > int64(w.prefixExecs)):
		t.Errorf("%s: program_cache_hits_total + compiles = %d, want between %d and %d executions", what, execs, w.keyExecs, w.prefixExecs)
	}
}

// TestSharingMatchesKeyedMemo runs the bulk drivers over several
// generated universes at 1, 2 and 8 partitions: the pairs the memo
// evaluates lie between the distinct (key, outcome) and (prefix, key)
// counts, below the latter, so it shares across prefixes, and are the
// same for every driver and partition count, as one key's routes all
// reach one partition in one run. The counters are exact. That the
// reports are VerifyRoute's, which shares nothing, is internal/oracle's
// C3.
func TestSharingMatchesKeyedMemo(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 5, 8} {
		sys, err := core.BuildSynthetic(core.Options{Seed: seed, ASes: 80, Collectors: 3})
		if err != nil {
			t.Fatal(err)
		}
		routes := sys.CollectRoutes(3, seed)

		v := verify.New(sys.DB, sys.Rels, verify.Config{})
		m := verify.NewMetrics(telemetry.NewRegistry("single"))
		v.SetMetrics(m)
		single := make([]verify.RouteReport, len(routes))
		for i := range routes {
			single[i] = v.VerifyRoute(routes[i])
		}
		w := countSweep(sys.DB, routes, single)
		if w.pairs == w.prefixed || w.ignored == 0 {
			t.Fatalf("seed %d: corpus has %d pairs in %d (prefix, key) groups and %d ignored routes; the test needs repeats and both",
				seed, w.pairs, w.prefixed, w.ignored)
		}
		checkCounters(t, fmt.Sprintf("seed %d VerifyRoute", seed), m, w, single, false, true)

		hits := int64(-1)
		sameHits := func(what string, m *verify.Metrics) {
			got := m.PairMemoHits.Value()
			if hits < 0 {
				hits = got
				if evals := int64(w.pairs) - got; evals >= int64(w.prefixed) {
					t.Errorf("%s: %d evaluations for %d (prefix, key) groups: nothing shared across prefixes", what, evals, w.prefixed)
				}
			} else if got != hits {
				t.Errorf("%s: pair_memo_hits_total = %d, another driver read %d", what, got, hits)
			}
		}
		for _, shards := range []int{1, 2, 8} {
			what := fmt.Sprintf("seed %d shards %d", seed, shards)
			v := verify.New(sys.DB, sys.Rels, verify.Config{Shards: shards})
			m := verify.NewMetrics(telemetry.NewRegistry("all"))
			v.SetMetrics(m)
			checkCounters(t, what+" VerifyAll", m, w, v.VerifyAll(routes, 0), true, shards == 1)
			sameHits(what+" VerifyAll", m)

			v = verify.New(sys.DB, sys.Rels, verify.Config{Shards: shards})
			m = verify.NewMetrics(telemetry.NewRegistry("stream"))
			v.SetMetrics(m)
			var streamed []verify.RouteReport
			v.VerifyStream(routes, 0, func(rep verify.RouteReport) { streamed = append(streamed, rep) })
			checkCounters(t, what+" VerifyStream", m, w, streamed, true, shards == 1)
			sameHits(what+" VerifyStream", m)
		}
	}
}

// TestVerifyAllStoresEachListOnce: the driver that keeps every report
// hands an equal reason list out as one backing array per partition.
// The stream and the single-route call keep no table, so they alias
// only what the pair memo serves: a stream's array may serve several
// prefixes, but only pairs of one memo key, and no array serves two
// checks of single calls.
func TestVerifyAllStoresEachListOnce(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 1, ASes: 80, Collectors: 3})
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(3, 1)
	type tally struct{ lists, arrays, contents, crossPrefix, crossKey int }
	count := func(reports []verify.RouteReport) tally {
		var n tally
		type use struct {
			report int
			key    string
		}
		first := make(map[*verify.Reason]use) // array -> where it was first seen
		contents := make(map[string]bool)
		for i := range reports {
			r := &reports[i].Route
			path := aspa.DedupePrepends(r.Path)
			for k, c := range reports[i].Checks {
				if len(c.Reasons) == 0 {
					continue
				}
				n.lists++
				contents[fmt.Sprint(c.Reasons)] = true
				key := pairKey(r, path, len(path)-2-k/2)
				if u, seen := first[&c.Reasons[0]]; !seen {
					first[&c.Reasons[0]] = use{i, key}
				} else {
					if reports[u.report].Route.Prefix != r.Prefix {
						n.crossPrefix++
					}
					if u.key != key {
						n.crossKey++
					}
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
		if s := count(streamed); s.crossKey != 0 || s.crossPrefix == 0 || s.lists != all.lists {
			t.Errorf("shards %d: VerifyStream handed out %d of %d lists from an array another key has, %d from one another prefix has; want none and some",
				shards, s.crossKey, s.lists, s.crossPrefix)
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
	// The target is a path AS with import rules, so stripping them
	// flips checks.
	var target ir.ASN
	for _, r := range routes {
		if target != 0 || r.HasASSet || len(r.Path) <= 1 {
			continue
		}
		for _, asn := range r.Path {
			if an, ok := sys.DB.AutNum(asn); ok && len(an.Imports) > 0 {
				target = asn
				break
			}
		}
	}
	if target == 0 {
		t.Fatal("no path AS with import rules in the synthetic corpus")
	}
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
	w := countSweep(sys.DB, routes, nil)
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
	verified := countSweep(sys.DB, routes[:100], nil).verified
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
