package nrtm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
)

// Mirror maintains a live irr.Database by applying journals
// incrementally. Every applied journal produces a fresh immutable
// snapshot (a copy-on-write clone with only the affected indexes
// recomputed) published through an atomic pointer, so readers obtained
// via DB are never mutated: in-flight queries finish on the snapshot
// they loaded while new queries see the new serial.
//
// Apply and Resync serialize through an internal mutex; DB, Serials,
// and Resyncs are safe to call concurrently from any goroutine.
type Mirror struct {
	mu      sync.Mutex
	db      atomic.Pointer[irr.Database]
	serials map[string]uint64
	resyncs atomic.Uint64
	metrics *Metrics
}

// SerialGapError reports a journal whose first serial does not
// continue the mirror's last applied serial for the registry. The
// mirror cannot apply it; the caller must fall back to a full resync.
type SerialGapError struct {
	Registry string
	// Have is the last applied serial (0 when the registry is new);
	// First is the rejected journal's first serial, which must have
	// been Have+1.
	Have  uint64
	First uint64
}

func (e *SerialGapError) Error() string {
	return fmt.Sprintf("nrtm: %s: serial gap: have %d, journal starts at %d",
		e.Registry, e.Have, e.First)
}

// NewMirror builds a mirror over a freshly indexed database for x.
// serials records the journal serial each registry's snapshot
// corresponds to (nil means every registry starts at serial 0, i.e.
// the next journal must start at 1). The map is copied. Metrics may be
// nil.
func NewMirror(x *ir.IR, serials map[string]uint64, m *Metrics) *Mirror {
	return NewMirrorDB(irr.New(x), serials, m)
}

// NewMirrorDB is NewMirror for an already-indexed database.
func NewMirrorDB(db *irr.Database, serials map[string]uint64, m *Metrics) *Mirror {
	mir := &Mirror{serials: make(map[string]uint64, len(serials)), metrics: m}
	for reg, s := range serials {
		mir.serials[reg] = s
	}
	mir.db.Store(db)
	return mir
}

// DB returns the current immutable snapshot.
func (m *Mirror) DB() *irr.Database {
	return m.db.Load()
}

// Serials returns a copy of the last applied serial per registry.
func (m *Mirror) Serials() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]uint64, len(m.serials))
	for reg, s := range m.serials {
		out[reg] = s
	}
	return out
}

// Resyncs returns how many full resyncs the mirror has performed.
func (m *Mirror) Resyncs() uint64 {
	return m.resyncs.Load()
}

// ApplyAll applies a batch of journals — possibly spanning several
// registries and several consecutive serial ranges per registry — as
// one transaction: a single snapshot clone, a single index settle, and
// a single publish. Each journal's first serial must be exactly one
// past its registry's last applied serial, else ApplyAll returns a
// *SerialGapError. The batch is all-or-nothing: a serial gap or a bad
// operation (unparseable, DEL of a missing object) in any journal
// leaves the published snapshot and every serial untouched, because
// operations are applied to a private clone that is only published on
// full success.
func (m *Mirror) ApplyAll(journals []*Journal) error {
	_, err := m.ApplyAllKeys(journals)
	return err
}

// ApplyAllKeys is ApplyAll, additionally returning the dependency keys
// of every object the batch touched — the exact input
// verify.Incremental.Reverify needs to re-verify only what the batch
// could have changed. The key set covers direct object changes (by
// name, ASN, or prefix) and indirect moves the apply computed anyway
// (as-sets whose membership shifted because an aut-num's member-of
// claims changed, route-sets containing changed routes by reference).
// An empty batch or a batch of empty journals returns a non-nil empty
// slice: "nothing touched", as opposed to nil's "unknown, redo
// everything".
func (m *Mirror) ApplyAllKeys(journals []*Journal) ([]depgraph.Key, error) {
	if len(journals) == 0 {
		return []depgraph.Key{}, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	next := make(map[string]uint64, len(journals))
	for reg := range m.serials {
		next[reg] = m.serials[reg]
	}
	for _, j := range journals {
		if have := next[j.Registry]; j.First != have+1 {
			m.metrics.gap()
			return nil, &SerialGapError{Registry: j.Registry, Have: have, First: j.First}
		}
		next[j.Registry] = j.Last
	}
	span := m.metrics.applySpan()
	db := m.db.Load().Clone()
	st := newApplyState()
	ops := 0
	for _, j := range journals {
		for _, op := range j.Ops {
			if err := applyOp(db, st, j.Registry, op); err != nil {
				return nil, fmt.Errorf("nrtm: %s serial %d: %w", j.Registry, op.Serial, err)
			}
		}
		ops += len(j.Ops)
	}
	st.settle(db)
	m.db.Store(db)
	m.serials = next
	span.End()
	m.metrics.applied(ops)
	return st.keys(), nil
}

// Resync replaces the mirror's state with a full rebuild from x,
// resetting the serial map to serials (copied; nil resets every
// registry to 0). Use it when Apply reports a serial gap and the
// caller has re-fetched full dumps.
func (m *Mirror) Resync(x *ir.IR, serials map[string]uint64) {
	// Rebuild at the current snapshot's shard count: a resync replaces
	// the data, not the partitioning.
	db := irr.NewSharded(x, m.db.Load().Shards())
	m.mu.Lock()
	defer m.mu.Unlock()
	m.serials = make(map[string]uint64, len(serials))
	for reg, s := range serials {
		m.serials[reg] = s
	}
	m.db.Store(db)
	m.resyncs.Add(1)
	m.metrics.resynced()
}

// routeID is the identity of a route object across the whole IR:
// the parser deduplicates on exactly this tuple.
type routeID struct {
	p   prefix.Prefix
	o   ir.ASN
	src string
}

// applyState accumulates, across one journal's operations, which
// indexes must be settled before the snapshot is published.
type applyState struct {
	// routeIdx maps route identity to its position in IR.Routes.
	// Deleted positions are nil-ed and compacted in settle so indexes
	// stay stable while operations are applied.
	routeIdx      map[routeID]int
	routesChanged bool
	// dirtyAsSets collects as-sets whose flat views are stale (changed
	// objects and sets whose indirect membership moved);
	// reindexAsSets/reindexRouteSets collect changed set objects whose
	// members-by-reference entries must be rebuilt by scanning.
	dirtyAsSets      map[string]struct{}
	reindexAsSets    map[string]struct{}
	reindexRouteSets map[string]struct{}
	// touched collects the dependency keys of directly changed objects
	// for ApplyAllKeys; keys() merges in the indirect moves tracked
	// above (dirty as-sets, reindexed route-sets).
	touched map[depgraph.Key]struct{}
}

func newApplyState() *applyState {
	return &applyState{
		dirtyAsSets:      make(map[string]struct{}),
		reindexAsSets:    make(map[string]struct{}),
		reindexRouteSets: make(map[string]struct{}),
		touched:          make(map[depgraph.Key]struct{}),
	}
}

// keys returns the batch's touched-object dependency keys, sorted:
// the directly collected keys plus an as-set key for every set whose
// flat membership moved and a route-set key for every changed
// route-set object. Always non-nil.
func (st *applyState) keys() []depgraph.Key {
	for name := range st.dirtyAsSets {
		st.touched[depgraph.AsSetKey(name)] = struct{}{}
	}
	for name := range st.reindexRouteSets {
		st.touched[depgraph.RouteSetKey(name)] = struct{}{}
	}
	out := make([]depgraph.Key, 0, len(st.touched))
	for k := range st.touched {
		out = append(out, k)
	}
	depgraph.SortKeys(out)
	return out
}

// settle recomputes the derived indexes the journal's operations made
// stale. Members-by-reference entries of changed sets are rebuilt
// against the final object population (operation order within the
// journal must not matter), then the affected as-set region is
// re-flattened, then route-sets if anything they depend on moved.
func (st *applyState) settle(db *irr.Database) {
	for name := range st.reindexAsSets {
		db.ReindexAsSet(name)
	}
	db.ReflattenAsSets(sortedNames(st.dirtyAsSets))
	if st.routesChanged || len(st.dirtyAsSets) > 0 || len(st.reindexRouteSets) > 0 {
		for name := range st.reindexRouteSets {
			db.ReindexRouteSet(name)
		}
		db.ReflattenRouteSets()
	}
	if st.routesChanged {
		fresh := db.IR.Routes[:0]
		for _, r := range db.IR.Routes {
			if r != nil {
				fresh = append(fresh, r)
			}
		}
		db.IR.Routes = fresh
	}
}

func sortedNames(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// applyOp applies one operation to the private clone.
func applyOp(db *irr.Database, st *applyState, registry string, op Op) error {
	obj, one, err := parser.ParseOne(op.Object, registry)
	if err != nil {
		return err
	}
	switch obj.Class {
	case "aut-num":
		for asn, an := range one.AutNums {
			st.touched[depgraph.AutNumKey(asn)] = struct{}{}
			old := db.IR.AutNums[asn]
			if op.Action == OpAdd {
				db.IR.AutNums[asn] = an
				oldSource := ""
				if old != nil {
					oldSource = old.Source
				}
				adjustCount(db.IR, oldSource, registry, obj.Class, old == nil)
				markDirty(st.dirtyAsSets, db.UpdateAutNumRefs(asn, old, an))
			} else {
				if old == nil {
					return fmt.Errorf("nrtm: DEL of unknown aut-num AS%d", asn)
				}
				delete(db.IR.AutNums, asn)
				uncount(db.IR, old.Source, obj.Class)
				markDirty(st.dirtyAsSets, db.UpdateAutNumRefs(asn, old, nil))
			}
		}
	case "as-set":
		for name, set := range one.AsSets {
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.AsSets, name, set,
				func(s *ir.AsSet) string { return s.Source }); err != nil {
				return err
			}
			st.reindexAsSets[name] = struct{}{}
			st.dirtyAsSets[name] = struct{}{}
		}
	case "route-set":
		for name, set := range one.RouteSets {
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.RouteSets, name, set,
				func(s *ir.RouteSet) string { return s.Source }); err != nil {
				return err
			}
			st.reindexRouteSets[name] = struct{}{}
		}
	case "route", "route6":
		if len(one.Routes) != 1 {
			return fmt.Errorf("nrtm: route operation decoded %d routes", len(one.Routes))
		}
		return applyRouteOp(db, st, registry, op.Action, one.Routes[0], obj.Class)
	case "peering-set":
		for name, set := range one.PeeringSets {
			st.touched[depgraph.PeeringSetKey(name)] = struct{}{}
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.PeeringSets, name, set,
				func(s *ir.PeeringSet) string { return s.Source }); err != nil {
				return err
			}
		}
	case "filter-set":
		for name, set := range one.FilterSets {
			st.touched[depgraph.FilterSetKey(name)] = struct{}{}
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.FilterSets, name, set,
				func(s *ir.FilterSet) string { return s.Source }); err != nil {
				return err
			}
		}
	case "inet-rtr":
		for name, rtr := range one.InetRtrs {
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.InetRtrs, name, rtr,
				func(s *ir.InetRtr) string { return s.Source }); err != nil {
				return err
			}
		}
	case "rtr-set":
		for name, set := range one.RtrSets {
			if err := upsert(db.IR, registry, obj.Class, op.Action, db.IR.RtrSets, name, set,
				func(s *ir.RtrSet) string { return s.Source }); err != nil {
				return err
			}
		}
	default:
		// Non-routing classes (mntner, person, ...) carry no indexed
		// state; only the per-source census moves.
		if op.Action == OpAdd {
			db.IR.CountObject(registry, obj.Class)
		} else {
			uncount(db.IR, registry, obj.Class)
		}
	}
	return nil
}

// upsert applies an ADD/DEL to one of the name-keyed object maps and
// the per-source census; index maintenance, where a class has any, is
// the caller's.
func upsert[V any](x *ir.IR, registry, class string, a Action, m map[string]V, name string, v V,
	source func(V) string) error {
	old, existed := m[name]
	if a == OpAdd {
		m[name] = v
		oldSource := ""
		if existed {
			oldSource = source(old)
		}
		adjustCount(x, oldSource, registry, class, !existed)
		return nil
	}
	if !existed {
		return fmt.Errorf("nrtm: DEL of unknown %s %s", class, name)
	}
	delete(m, name)
	uncount(x, source(old), class)
	return nil
}

// applyRouteOp maintains IR.Routes and the route indexes for one
// route operation. Route identity is (prefix, origin, source) — the
// same tuple the parser deduplicates on — and the journal's registry
// is the source, so a registry can only touch its own route objects.
func applyRouteOp(db *irr.Database, st *applyState, registry string, a Action, r *ir.RouteObject, class string) error {
	if st.routeIdx == nil {
		st.routeIdx = make(map[routeID]int, len(db.IR.Routes))
		for i, ex := range db.IR.Routes {
			st.routeIdx[routeID{ex.Prefix, ex.Origin, ex.Source}] = i
		}
	}
	id := routeID{r.Prefix, r.Origin, r.Source}
	idx, existed := st.routeIdx[id]
	// The origin's route table and the prefix's origin set move either
	// way; route-sets naming this route by member-of (old and new
	// claims) have their flat tables moved too.
	st.touched[depgraph.RoutesKey(r.Origin)] = struct{}{}
	st.touched[depgraph.PrefixKey(r.Prefix)] = struct{}{}
	for _, name := range r.MemberOfs {
		st.touched[depgraph.RouteSetKey(name)] = struct{}{}
	}
	if existed {
		for _, name := range db.IR.Routes[idx].MemberOfs {
			st.touched[depgraph.RouteSetKey(name)] = struct{}{}
		}
	}
	if a == OpAdd {
		if existed {
			// Replace in place (e.g. changed member-of) so dump render
			// order is preserved.
			db.RemoveRoute(db.IR.Routes[idx])
			db.IR.Routes[idx] = r
		} else {
			db.IR.Routes = append(db.IR.Routes, r)
			st.routeIdx[id] = len(db.IR.Routes) - 1
			db.IR.CountObject(registry, class)
		}
		db.AddRoute(r)
	} else {
		if !existed {
			return fmt.Errorf("nrtm: DEL of unknown route %s AS%d", r.Prefix, r.Origin)
		}
		db.RemoveRoute(db.IR.Routes[idx])
		db.IR.Routes[idx] = nil
		delete(st.routeIdx, id)
		uncount(db.IR, registry, class)
	}
	st.routesChanged = true
	return nil
}

// adjustCount maintains the per-source census on an ADD: newly
// created objects count in the journal's registry, and a replacement
// that moves an object between registries moves its count too.
func adjustCount(x *ir.IR, oldSource, registry, class string, created bool) {
	if created {
		x.CountObject(registry, class)
		return
	}
	if oldSource != registry {
		uncount(x, oldSource, class)
		x.CountObject(registry, class)
	}
}

// uncount decrements the per-source census, dropping zeroed entries so
// the map shape matches a fresh parse.
func uncount(x *ir.IR, source, class string) {
	m := x.Counts[source]
	if m == nil {
		return
	}
	if m[class] > 1 {
		m[class]--
		return
	}
	delete(m, class)
	if len(m) == 0 {
		delete(x.Counts, source)
	}
}

func markDirty(set map[string]struct{}, names []string) {
	for _, n := range names {
		set[n] = struct{}{}
	}
}
