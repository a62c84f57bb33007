package verify

import (
	"fmt"
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

	// asRoutes, pfxRoutes, and pfxTrie index the corpus for dirtying;
	// they depend only on the routes, not on the database. pfxTrie maps
	// each corpus prefix to its route indexes for covered-by walks
	// (range operators only widen toward more-specifics, so a changed
	// table entry affects exactly the corpus prefixes it covers).
	asRoutes  map[ir.ASN][]int32
	pfxRoutes map[prefix.Prefix][]int32
	pfxTrie   *prefix.Trie[[]int32]
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

// NewIncremental builds the engine around a fresh Verifier.
// Incremental re-verification requires the compiled evaluation engine
// (the interpreter resolves sets at run time, leaving no per-program
// dependency record).
func NewIncremental(db *irr.Database, rels *asrel.Database, cfg Config) (*Incremental, error) {
	cfg.fill()
	if cfg.Eval == "interp" {
		return nil, fmt.Errorf("verify: incremental re-verification requires the compiled engine (eval=interp unsupported)")
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
// survive the next step.
func (inc *Incremental) Reports() []RouteReport { return inc.reports }

// GraphStats returns the dependency graph's current sizes.
func (inc *Incremental) GraphStats() depgraph.Stats { return inc.graph.Stats() }

// Init verifies the corpus from scratch and builds the route indexes.
// It must be called once before Reverify.
func (inc *Incremental) Init(routes []bgpsim.Route, workers int) []RouteReport {
	inc.routes = routes
	inc.reports = inc.v.VerifyAll(routes, workers)
	inc.indexRoutes()
	return inc.reports
}

// indexRoutes rebuilds asRoutes/pfxRoutes for the current corpus.
// Ignored routes (AS-set paths, single-AS paths) are skipped: their
// reports do not depend on the database. One walk notes every (key,
// route) hit, keys numbered by first appearance; group counts and fills.
func (inc *Incremental) indexRoutes() {
	asIDs := make(map[ir.ASN]int32, len(inc.asRoutes))
	pfxIDs := make(map[prefix.Prefix]int32, len(inc.pfxRoutes))
	hops := 0
	for i := range inc.routes {
		hops += len(inc.routes[i].Path)
	}
	asHits, pfxHits := make([]hit, 0, hops), make([]hit, 0, len(inc.routes))
	var path []ir.ASN // scratch: the index keeps ASNs, not the slice
	for i := range inc.routes {
		r := &inc.routes[i]
		if r.HasASSet {
			continue
		}
		path = dedupePrependsInto(path[:0], r.Path)
		if len(path) <= 1 {
			continue
		}
		for j, asn := range path {
			if slices.Contains(path[:j], asn) {
				continue // AS appears twice on a path loop, index it once
			}
			asHits = append(asHits, hit{idOf(asIDs, asn), int32(i)})
		}
		pfxHits = append(pfxHits, hit{idOf(pfxIDs, r.Prefix), int32(i)})
	}
	inc.asRoutes, inc.pfxRoutes = group(asIDs, asHits), group(pfxIDs, pfxHits)
	var tr prefix.TrieBuilder[[]int32]
	for pfx, idxs := range inc.pfxRoutes {
		*tr.At(pfx) = idxs
	}
	inc.pfxTrie = tr.Trie()
}

// hit is one route under one index key, idOf the key's number.
type hit struct{ key, route int32 }

func idOf[K comparable](ids map[K]int32, k K) int32 {
	id, ok := ids[k]
	if !ok {
		id = int32(len(ids))
		ids[k] = id
	}
	return id
}

// group returns each key's routes in hit order, every list an
// exact-size range of one array: count, then fill.
func group[K comparable](ids map[K]int32, hits []hit) map[K][]int32 {
	end := make([]int32, len(ids)+1)
	for _, h := range hits {
		end[h.key+1]++
	}
	lists, arena := make([][]int32, len(ids)), make([]int32, len(hits))
	for id := range lists {
		end[id+1] += end[id]
		lists[id] = arena[end[id]:end[id]:end[id+1]]
	}
	for _, h := range hits {
		lists[h.key] = append(lists[h.key], h.route)
	}
	out := make(map[K][]int32, len(ids))
	for k, id := range ids {
		out[k] = lists[id]
	}
	return out
}

// Reverify moves the engine to db. With touched non-nil it invalidates
// only the programs depending on a touched key, dirties only the routes
// a touched object or invalidated program can reach, and re-verifies
// those; with touched nil it discards every compiled program and
// re-verifies the whole corpus (the resync path). parent, when non-nil,
// receives "invalidate" and "reverify-routes" child spans.
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
				inc.reports[i] = inc.v.verifyRoute(inc.routes[i], a, nil, old, masks)
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
