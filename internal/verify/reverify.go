package verify

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/trace"
)

// Incremental is the dependency-graph re-verification engine: it holds
// one Verifier, the route corpus, the latest per-route reports, and the
// compiled programs' dependency graph, and patches the reports in place
// when the database moves forward by an NRTM delta.
//
// The invariant it maintains is byte-identical equivalence: after
// Reverify(db, touched) the held reports equal what a from-scratch
// VerifyAll against db would produce, provided touched covers the delta
// between the old and new database (nrtm.Mirror.ApplyAllKeys computes
// exactly that cover).
//
// Routes are dirtied by diffing each touched object between the old
// and new snapshots (markKeyDelta): a changed rule list dirties only
// the checks that AS evaluates, a set-member delta only the routes
// carrying or covered by the member, a route-table delta only the
// routes its entries' base prefixes cover. Dirty routes then split
// into full re-verifications and check-level patches, which
// re-evaluate only the affected (self, direction) checks and
// copy the rest from the previous report. This keeps a step's cost
// proportional to the semantic size of the delta, not to the fan-out
// of the dependency graph.
//
// Reverify and Reconcile must not run concurrently with each other or
// with readers of Reports; downstream consumers should copy the patched
// reports into an immutable snapshot (reportstore) before publishing.
type Incremental struct {
	v     *Verifier
	graph *depgraph.Graph

	routes  []bgpsim.Route
	reports []RouteReport

	// asRoutes and pfxTrie index the corpus for dirtying, nil until the
	// first Reverify that dirties builds them; they depend only on the
	// routes, not on the database. pfxTrie maps each corpus prefix to
	// its route indexes, for exact lookups and covered-by walks (range
	// operators only widen toward more-specifics, so a changed table
	// entry affects exactly the corpus prefixes it covers).
	asRoutes map[ir.ASN][]int32
	pfxTrie  *prefix.Trie[[]int32]
}

// ReverifyResult summarizes one incremental step.
type ReverifyResult struct {
	// Full marks a full re-verification (touched == nil).
	Full bool
	// TouchedKeys is the size of the touched-key input.
	TouchedKeys int
	// Programs lists the invalidated compiled programs (evicted, then
	// recompiled against the new database), by ASN, sorted.
	Programs []ir.ASN
	// Dirty lists the corpus indexes of the re-verified routes, sorted.
	// On a full pass it is nil and every route was re-verified.
	Dirty []int32
	// Routes is the number of routes re-verified; Patched counts the
	// subset handled by check-level patching rather than a full
	// per-route re-verification.
	Routes, Patched int
	// Duration is the wall time of the step.
	Duration time.Duration
}

// ReconcileResult summarizes a reconciliation pass.
type ReconcileResult struct {
	// Routes is the corpus size; Drift counts routes whose incremental
	// report differed from the fresh full verification (0 means the
	// dependency cover missed nothing).
	Routes, Drift int
	Duration      time.Duration
}

// NewIncremental builds the engine around a fresh Verifier. It
// returns an error for a Config.Eval other than "" or "compiled".
func NewIncremental(db *irr.Database, rels *asrel.Database, cfg Config) (*Incremental, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	inc := &Incremental{
		v:     New(db, rels, cfg),
		graph: depgraph.New(),
	}
	inc.v.SetDepGraph(inc.graph)
	return inc, nil
}

// Verifier exposes the engine's verifier (for SetMetrics / SetTracer /
// SetProfiler wiring).
func (inc *Incremental) Verifier() *Verifier { return inc.v }

// Reports returns the engine's current per-route reports, in corpus
// order. The slice is patched in place by Reverify; copy what must
// survive the next step. Checks may be shared between reports, and are
// read-only: Reverify writes a report it patches into fresh memory.
func (inc *Incremental) Reports() []RouteReport { return inc.reports }

// GraphStats returns the dependency graph's current sizes.
func (inc *Incremental) GraphStats() depgraph.Stats { return inc.graph.Stats() }

// Init verifies the corpus from scratch. It must be called once before
// Reverify. The route indexes that dirtying reads are built by the
// first Reverify that dirties: an engine that never steps, as in a
// reportd without -mirror, never pays for them.
func (inc *Incremental) Init(routes []bgpsim.Route, workers int) []RouteReport {
	inc.routes = routes
	inc.asRoutes, inc.pfxTrie = nil, nil
	inc.reports = inc.v.VerifyAll(routes, workers)
	return inc.reports
}

// indexRoutes rebuilds asRoutes and pfxTrie for the current corpus,
// one on each of two goroutines. Ignored routes (AS-set paths,
// single-AS paths) are skipped: their reports do not depend on the
// database.
//
// Both indexes come out of sorts, with no hash table per hop or per
// route: a pass in route order notes one entry per key and route, a
// stable sort puts each key's routes in one run, in route order, and
// each run becomes its key's list, an exact-size window of one array.
func (inc *Incremental) indexRoutes() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		inc.pfxTrie = indexPrefixes(inc.routes)
	}()
	inc.asRoutes = indexASes(inc.routes)
	wg.Wait()
}

// indexed reports whether dirtying indexes r: whether its path has no
// AS-set and two ASes.
func indexed(r *bgpsim.Route) bool {
	if r.HasASSet {
		return false
	}
	for j := 1; j < len(r.Path); j++ {
		if r.Path[j] != r.Path[0] {
			return true
		}
	}
	return false
}

// indexASes maps each AS to the indexed routes whose paths visit it,
// from an (ASN, route) word per AS of each deduplicated path. An AS
// that a path loop visits twice leaves two equal words, which the sort
// puts side by side. The map takes one insert per distinct AS.
func indexASes(routes []bgpsim.Route) map[ir.ASN][]int32 {
	hops := 0
	for i := range routes {
		hops += len(routes[i].Path)
	}
	hits := make([]uint64, 0, hops) // ASN<<32 | route
	for i := range routes {
		r := &routes[i]
		if !indexed(r) {
			continue
		}
		for j, asn := range r.Path {
			if j == 0 || asn != r.Path[j-1] {
				hits = append(hits, uint64(asn)<<32|uint64(i))
			}
		}
	}
	hits = slices.Compact(sortByASN(hits))
	lists := make([]int32, len(hits))
	out := make(map[ir.ASN][]int32)
	for lo := 0; lo < len(hits); {
		hi := lo
		for ; hi < len(hits) && hits[hi]>>32 == hits[lo]>>32; hi++ {
			lists[hi] = int32(hits[hi])
		}
		out[ir.ASN(hits[lo]>>32)] = lists[lo:hi:hi]
		lo = hi
	}
	return out
}

// indexPrefixes returns the trie of the indexed routes' prefixes, each
// holding its routes, from one prefix Key per indexed route. The
// distinct Keys, in sorted order, are the trie's input.
func indexPrefixes(routes []bgpsim.Route) *prefix.Trie[[]int32] {
	keys := make([]prefix.PosKey, 0, len(routes))
	for i := range routes {
		if indexed(&routes[i]) {
			keys = append(keys, routes[i].Prefix.Key().At(i))
		}
	}
	prefix.SortKeys(keys)
	lists := make([]int32, len(keys))
	var pfxLists [][]int32
	for lo := 0; lo < len(keys); {
		k, hi := keys[lo].Key(), lo
		for ; hi < len(keys) && keys[hi].Key() == k; hi++ {
			lists[hi] = keys[hi].Pos
		}
		keys[len(pfxLists)] = k.At(len(pfxLists)) // keys[:g] holds the distinct Keys
		pfxLists = append(pfxLists, lists[lo:hi:hi])
		lo = hi
	}
	return prefix.BuildSortedTrie(keys[:len(pfxLists)], func(idxs *[]int32, g int) { *idxs = pfxLists[g] })
}

// sortByASN sorts hits stably by ASN, their high 32 bits: a
// least-significant-digit radix sort in two 16-bit passes, the second
// skipped when every ASN is below 2^16. It returns whichever of hits
// and its scratch copy holds the result.
func sortByASN(hits []uint64) []uint64 {
	if len(hits) == 0 {
		return hits
	}
	at := make([]int, 1<<16)
	var tmp []uint64
	for shift := 32; shift < 64; shift += 16 {
		clear(at)
		for _, h := range hits {
			at[h>>shift&0xffff]++
		}
		if at[hits[0]>>shift&0xffff] == len(hits) {
			continue
		}
		sum := 0
		for d, n := range at {
			at[d], sum = sum, sum+n
		}
		if tmp == nil {
			tmp = make([]uint64, len(hits))
		}
		for _, h := range hits {
			d := h >> shift & 0xffff
			tmp[at[d]] = h
			at[d]++
		}
		hits, tmp = tmp, hits
	}
	return hits
}

// Reverify moves the engine to db. With touched non-nil it invalidates
// only the programs depending on a touched key, dirties only the routes
// a touched object or invalidated program can reach, and re-verifies
// those; with touched nil it discards every compiled program and
// re-verifies the whole corpus (the resync path). parent, when non-nil,
// receives "invalidate" and "reverify-routes" child spans; the first
// step that dirties builds the route indexes under an "index-routes"
// child of "invalidate".
func (inc *Incremental) Reverify(db *irr.Database, touched []depgraph.Key, workers int, parent *trace.Span) ReverifyResult {
	t0 := time.Now()
	if touched == nil {
		inv := parent.Child("invalidate")
		inc.v.resync(db)
		if inv != nil {
			inv.End()
		}
		rv := parent.Child("reverify-routes")
		inc.reports = inc.v.VerifyAll(inc.routes, workers)
		if rv != nil {
			rv.SetInt("routes", int64(len(inc.routes))).End()
		}
		return ReverifyResult{Full: true, Routes: len(inc.routes), Duration: time.Since(t0)}
	}

	inv := parent.Child("invalidate")
	if inc.asRoutes == nil {
		ix := inv.Child("index-routes")
		inc.indexRoutes()
		if ix != nil {
			ix.SetInt("routes", int64(len(inc.routes))).End()
		}
	}
	oldDB := inc.v.DB
	invalidated := inc.graph.Dependents(touched)

	// Dirty the routes each touched object's semantic delta can reach,
	// given the programs depending on it (read before evict tears their
	// edges out of the graph). Invalidated programs need no blanket
	// marking of their own: evict recompiles them against the new
	// snapshot, and a recompiled program produces byte-identical checks
	// except where a touched object's delta applies — exactly what
	// markKeyDelta marks.
	d := newDirt()
	evict := slices.Clone(invalidated)
	for _, k := range touched {
		inc.markKeyDelta(d, k, oldDB, db, inc.graph.Dependents([]depgraph.Key{k}))
		if k.Kind == depgraph.KindAutNum {
			evict = append(evict, k.ASN)
		}
	}
	inc.v.evict(db, evict)
	if inv != nil {
		inv.SetInt("keys", int64(len(touched))).
			SetInt("programs", int64(len(invalidated))).
			SetInt("dirty_routes", int64(len(d.full)+len(d.part))).
			End()
	}

	rv := parent.Child("reverify-routes")
	order := d.order()
	inc.reverifyIndexes(order, d.part, workers)
	if rv != nil {
		rv.SetInt("routes", int64(len(order))).
			SetInt("patched", int64(len(d.part))).End()
	}

	return ReverifyResult{
		TouchedKeys: len(touched),
		Programs:    invalidated,
		Dirty:       order,
		Routes:      len(order),
		Patched:     len(d.part),
		Duration:    time.Since(t0),
	}
}

// reverifyIndexes re-verifies the given corpus indexes concurrently,
// writing reports in place: indexes with masks in part are patched
// check by check, the rest verified from scratch. part is read-only
// here and report writes are disjoint per index, so workers need no
// locking. Each worker owns a zero-value (exact-size, share-free) arena,
// so patched reports never pin bulk blocks.
func (inc *Incremental) reverifyIndexes(order []int32, part map[int32]map[ir.ASN]CheckMask, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(order))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := &reportArena{}
			defer a.flush(inc.v)
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				i := order[k]
				var old *RouteReport
				masks, patch := part[i]
				if patch {
					old = &inc.reports[i]
				}
				var rep RouteReport // not in place: old may be inc.reports[i]
				inc.v.verifyRoute(&inc.routes[i], a, &rep, old, masks)
				inc.reports[i] = rep
			}
		}()
	}
	wg.Wait()
}

// Reconcile runs a from-scratch verification against the current
// database and adopts it, reporting how many routes the incremental
// state had drifted on. The answer should always be zero; non-zero
// drift means the dependency cover missed an edge and is worth an
// alert. It is the periodic safety net behind reportd's
// -reconcile-every flag.
func (inc *Incremental) Reconcile(workers int) ReconcileResult {
	t0 := time.Now()
	prev := inc.reports
	inc.Reverify(inc.v.DB, nil, workers, nil)
	drift := 0
	for i := range prev {
		if !reportsEqual(&prev[i], &inc.reports[i]) {
			drift++
		}
	}
	return ReconcileResult{Routes: len(prev), Drift: drift, Duration: time.Since(t0)}
}

// reportsEqual compares two reports for semantic equality (ignore
// marker and per-check status/reasons); Route is identical by
// construction.
func reportsEqual(a, b *RouteReport) bool {
	if a.Ignored != b.Ignored || len(a.Checks) != len(b.Checks) {
		return false
	}
	for i := range a.Checks {
		ca, cb := &a.Checks[i], &b.Checks[i]
		if ca.From != cb.From || ca.To != cb.To || ca.Dir != cb.Dir ||
			ca.Status != cb.Status || !slices.Equal(ca.Reasons, cb.Reasons) {
			return false
		}
	}
	return true
}

// AffectedASes returns the sorted union of path ASes over the given
// dirty corpus indexes — the ASes whose checks a Reverify step could
// have changed (cmd/verify -changed prints these).
func (inc *Incremental) AffectedASes(dirty []int32) []ir.ASN {
	seen := make(map[ir.ASN]struct{})
	for _, i := range dirty {
		for _, asn := range dedupePrependsInto(nil, inc.routes[i].Path) {
			seen[asn] = struct{}{}
		}
	}
	out := make([]ir.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	slices.Sort(out)
	return out
}
