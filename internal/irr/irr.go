// Package irr provides the merged, indexed IRR database the verifier
// queries: route objects indexed by origin, recursively flattened
// as-sets and route-sets (cycle-safe via strongly connected
// components), members-by-reference resolution, and the set-graph
// analysis behind the paper's as-set pathology census.
//
// Internally every index is keyed by dense symtab symbol IDs — set
// names and origin ASNs are interned once at build time, and the hot
// lookups (verify's filter matching, whois's origin queries) become
// bounds-checked slice indexing instead of string/ASN hashing. The
// reverse prefix→origins index is a persistent radix trie shared
// structurally between copy-on-write snapshots.
package irr

import (
	"slices"
	"sort"
	"sync"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/symtab"
)

// Database wraps an IR with the indexes needed for interpretation.
// A Database is immutable after New and safe for concurrent use.
type Database struct {
	IR *ir.IR

	// syms interns set names and ASNs to the dense IDs the slice
	// indexes below are keyed by. It is append-only and shared between
	// a database and its clones, so IDs are stable across snapshots;
	// a slice lookup must bounds-check because the interner may have
	// grown past what this snapshot indexed.
	syms *symtab.Table

	// parts holds the route indexes, partitioned by shard.Of(origin).
	// All route objects of one origin live wholly inside one part, so
	// per-origin lookups (routeTableOf, the verifier's origin checks)
	// are exact single-part reads; only prefix-keyed queries (OriginsOf
	// and the whois coverage walks) fan out and merge. shardN == 1 is
	// the unsharded layout: one part holding exactly the indexes the
	// pre-shard engine built, with no merge machinery on any path.
	shardN int
	parts  []*routePart

	// seqNext numbers (prefix, origin) pairs in global first-seen order
	// when shardN > 1; prefixOrigins.seq snapshots it so cross-shard
	// merges can reproduce the exact origin ordering the unsharded
	// build would have produced. Single-shard databases never consume
	// it (their merges are trivial), but it is maintained regardless so
	// a clone chain stays consistent.
	seqNext int64

	// asSetIndirect lists ASNs joined to each as-set (by as-set symbol
	// ID) via member-of + mbrs-by-ref; routeSetIndirect likewise for
	// route objects, by route-set symbol ID.
	asSetIndirect    [][]ir.ASN
	routeSetIndirect [][]prefix.Range

	// flatAsSets holds the flattened member ASNs of every as-set (by
	// as-set symbol ID), computed once via SCC condensation.
	flatAsSets []*FlatAsSet

	// flatRouteSets holds the flattened prefix ranges of every
	// route-set, by route-set symbol ID.
	flatRouteSets []*FlatRouteSet

	// asSetTables lazily materializes the merged route table of an
	// as-set's flattened members (the hot path of filter matching),
	// keyed by as-set symbol ID.
	mu          sync.Mutex
	asSetTables map[symtab.ID]*prefix.Table
}

// FlatAsSet is the flattened view of one as-set.
type FlatAsSet struct {
	Name string
	// ASNs is the transitive member-AS closure.
	ASNs map[ir.ASN]struct{}
	// Unrecorded lists referenced as-set names absent from the IRR.
	Unrecorded []string
	// Depth is the length of the longest reference chain starting at
	// this set, counting the set itself (a set with only ASN members
	// has depth 1). Sets inside a reference cycle count the cycle once.
	Depth int
	// InLoop marks sets on a reference cycle (self-loops included).
	InLoop bool
	// Recursive marks sets that reference at least one other set.
	Recursive bool
}

// FlatRouteSet is the flattened view of one route-set.
type FlatRouteSet struct {
	Name string
	// Table holds the accumulated prefix ranges.
	Table *prefix.Table
	// Origins collects ASNs referenced as members (their route objects
	// contribute prefixes, and relaxed verification uses the origin
	// check on them).
	Origins map[ir.ASN]struct{}
	// Unrecorded lists referenced set names absent from the IRR.
	Unrecorded []string
	// InLoop marks route-sets on a reference cycle.
	InLoop bool
}

// routePart is one shard's slice of the route indexes.
type routePart struct {
	// routesByOrigin maps each origin AS (by ASN symbol ID) to its
	// route-object prefixes. A nil entry means the AS never appears as
	// an origin (or its origin hashes to another part). The slice is
	// indexed by global symtab IDs, so it is sparse when sharded; the
	// tables it points at are the dominant memory, not the spine.
	routesByOrigin []*prefix.Table

	// routeTrie maps an exact prefix to the origins of its route
	// objects (the paper's multi-origin analysis and the Export Self
	// relaxation both need this reverse index) together with how many
	// route objects (across sources) record each (prefix, origin) pair,
	// which is what incremental removal needs to know when a pair truly
	// leaves the indexes. The trie is persistent: clones share it by
	// pointer and mutators swap in the root returned by Insert/Delete,
	// and it doubles as the longest-prefix-match index behind the whois
	// coverage queries.
	routeTrie *prefix.Trie[prefixOrigins]

	// nroutes counts the route objects (with multiplicity) this part
	// owns; the shard-imbalance telemetry reads it.
	nroutes int
}

// New builds the indexed database from an IR with a single shard —
// the exact layout and behavior of the pre-shard engine.
func New(x *ir.IR) *Database { return NewSharded(x, 1) }

// NewSharded builds the indexed database with the route indexes
// partitioned into shards parts keyed by a stable hash of the origin
// ASN. Sets, aut-nums, and the flattened set plane stay shared across
// shards (set flattening needs the whole route universe); only the
// per-origin tables and the prefix→origins trie are partitioned.
// Queries return byte-identical results at any shard count.
func NewSharded(x *ir.IR, shards int) *Database {
	if shards < 1 {
		shards = 1
	}
	db := &Database{
		IR:          x,
		syms:        symtab.NewTable(),
		shardN:      shards,
		asSetTables: make(map[symtab.ID]*prefix.Table),
	}
	db.internSymbols()
	db.indexRoutes()
	db.indexMembersByRef()
	// A full build is a re-flatten with every as-set affected.
	db.ReflattenAsSets(sortedMapKeys(db.IR.AsSets))
	db.ReflattenRouteSets()
	return db
}

// Shards returns the number of route-index partitions.
func (db *Database) Shards() int { return db.shardN }

// ShardRouteCounts returns the number of route objects owned by each
// shard, for the imbalance telemetry.
func (db *Database) ShardRouteCounts() []int {
	counts := make([]int, len(db.parts))
	for i, p := range db.parts {
		counts[i] = p.nroutes
	}
	return counts
}

// internSymbols assigns dense IDs to every set name and ASN in the IR,
// in sorted order so a given IR always produces the same ID layout.
func (db *Database) internSymbols() {
	for _, name := range sortedMapKeys(db.IR.AsSets) {
		db.syms.AsSets.Intern(name)
	}
	for _, name := range sortedMapKeys(db.IR.RouteSets) {
		db.syms.RouteSets.Intern(name)
	}
	for _, name := range sortedMapKeys(db.IR.FilterSets) {
		db.syms.FilterSets.Intern(name)
	}
	for _, name := range sortedMapKeys(db.IR.PeeringSets) {
		db.syms.PeeringSets.Intern(name)
	}
	asns := make([]ir.ASN, 0, len(db.IR.AutNums))
	for asn := range db.IR.AutNums {
		asns = append(asns, asn)
	}
	slices.Sort(asns)
	for _, asn := range asns {
		db.syms.ASNs.Intern(uint32(asn))
	}
}

func sortedMapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sliceAt is the bounds-checked lookup-table read: IDs past the end of
// the slice (interned after this snapshot was indexed) read as zero.
func sliceAt[T any](s []T, id symtab.ID) T {
	if int(id) >= len(s) {
		var zero T
		return zero
	}
	return s[id]
}

// slicePut grows the table to cover id and stores v. Callers own the
// slice (Clone copies the spines), so in-place writes are safe.
func slicePut[T any](s []T, id symtab.ID, v T) []T {
	if int(id) >= len(s) {
		s = append(s, make([]T, int(id)+1-len(s))...)
	}
	s[id] = v
	return s
}

// prefixOrigins is the per-prefix record in a part's routeTrie: the
// distinct origins of a prefix's route objects in first-seen order,
// with counts parallel to origins giving each (prefix, origin) pair's
// route-object multiplicity across sources. seq (populated only when
// the database is sharded) numbers each pair in global first-seen
// order so a cross-shard merge can restore the exact single-shard
// origin ordering. Values shared between snapshots are immutable;
// mutators replace the slices instead of editing them.
type prefixOrigins struct {
	origins []ir.ASN
	counts  []int
	seq     []int64
}

// indexRoutes builds per-origin route tables and the per-prefix
// origin/multiplicity trie, one part per shard. Parts are disjoint by
// construction (partitioned on origin), so they build concurrently.
func (db *Database) indexRoutes() {
	n := db.shardN
	db.parts = make([]*routePart, n)
	db.seqNext = int64(len(db.IR.Routes))
	if n == 1 {
		db.parts[0] = buildRoutePart(db, db.IR.Routes, nil)
		return
	}
	perShard := make([][]*ir.RouteObject, n)
	perSeq := make([][]int64, n)
	for i, r := range db.IR.Routes {
		s := shard.Of(r.Origin, n)
		perShard[s] = append(perShard[s], r)
		perSeq[s] = append(perSeq[s], int64(i))
	}
	// Pre-intern every origin in feed order so ASN symbol IDs come out
	// identical at any shard count (the concurrent part builds below
	// would otherwise race to mint IDs).
	for _, r := range db.IR.Routes {
		db.syms.ASNs.Intern(uint32(r.Origin))
	}
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			db.parts[s] = buildRoutePart(db, perShard[s], perSeq[s])
		}(s)
	}
	wg.Wait()
}

// buildRoutePart indexes one shard's routes. seqs, parallel to routes,
// carries each route's global feed position; nil on the unsharded
// path, where merge ordering is never needed. No reader can see the
// part yet, so the trie is built in place; Insert and Delete take over
// once it is published (update.go).
func buildRoutePart(db *Database, routes []*ir.RouteObject, seqs []int64) *routePart {
	p := &routePart{nroutes: len(routes)}
	var tr prefix.TrieBuilder[prefixOrigins]
	// Nearly every prefix has one origin: its one-element origins,
	// counts and seq are slot i of three slabs (seqs itself is the
	// third), cut to capacity one so that an append reallocates.
	origins, counts := make([]ir.ASN, len(routes)), make([]int, len(routes))
	// pairs lists each distinct (prefix, origin) as origin<<32 | index
	// of its first route, so that sorting groups by origin.
	pairs := make([]uint64, 0, len(routes))
	for i, r := range routes {
		po := tr.At(r.Prefix)
		if j := slices.Index(po.origins, r.Origin); j >= 0 {
			po.counts[j]++ // fresh build: the backing array is unshared
			continue
		}
		pairs = append(pairs, uint64(r.Origin)<<32|uint64(i))
		if po.origins == nil {
			origins[i], counts[i] = r.Origin, 1
			po.origins, po.counts = origins[i:i+1:i+1], counts[i:i+1:i+1]
			if seqs != nil {
				po.seq = seqs[i : i+1 : i+1]
			}
			continue
		}
		po.origins = append(po.origins, r.Origin)
		po.counts = append(po.counts, 1)
		if seqs != nil {
			po.seq = append(po.seq, seqs[i])
		}
	}
	p.routeTrie = tr.Trie()
	// Every origin's ranges are a run of one slab.
	slices.Sort(pairs)
	ranges := make([]prefix.Range, len(pairs))
	for i, pr := range pairs {
		ranges[i].Prefix = routes[uint32(pr)].Prefix
	}
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j]>>32 == pairs[i]>>32 {
			j++
		}
		p.setRouteTable(db.syms, ir.ASN(pairs[i]>>32), prefix.NewTable(ranges[i:j]))
		i = j
	}
	return p
}

// partOf returns the part owning an origin's routes.
func (db *Database) partOf(asn ir.ASN) *routePart {
	return db.parts[shard.Of(asn, db.shardN)]
}

// routeTableOf returns the per-origin table, or nil when the AS has no
// route objects. Exact single-part lookup: an origin's routes are
// never split across shards.
func (db *Database) routeTableOf(asn ir.ASN) *prefix.Table {
	id, ok := db.syms.ASNs.Lookup(uint32(asn))
	if !ok {
		return nil
	}
	return sliceAt(db.partOf(asn).routesByOrigin, id)
}

func (db *Database) setRouteTable(asn ir.ASN, t *prefix.Table) {
	db.partOf(asn).setRouteTable(db.syms, asn, t)
}

func (p *routePart) setRouteTable(syms *symtab.Table, asn ir.ASN, t *prefix.Table) {
	id := syms.ASNs.Intern(uint32(asn))
	p.routesByOrigin = slicePut(p.routesByOrigin, id, t)
}

// OriginsOf returns the origins of route objects registered for
// exactly this prefix, in global first-seen order.
func (db *Database) OriginsOf(p prefix.Prefix) []ir.ASN {
	if db.shardN == 1 {
		po, _ := db.parts[0].routeTrie.Get(p)
		return po.origins
	}
	var merged prefixOrigins
	found := 0
	for _, part := range db.parts {
		if po, ok := part.routeTrie.Get(p); ok {
			merged = appendOrigins(merged, po)
			found++
		}
	}
	if found > 1 {
		sortBySeq(&merged)
	}
	return merged.origins
}

// appendOrigins concatenates one part's pair record onto an
// accumulator (allocating; the inputs stay shared and immutable).
func appendOrigins(dst prefixOrigins, src prefixOrigins) prefixOrigins {
	dst.origins = append(dst.origins, src.origins...)
	dst.counts = append(dst.counts, src.counts...)
	dst.seq = append(dst.seq, src.seq...)
	return dst
}

// sortBySeq restores global first-seen pair order after a cross-shard
// gather. Within one part the seq slice is already ascending, so this
// is a merge of sorted runs; plain insertion sort is fine at the tiny
// origin counts prefixes actually have.
func sortBySeq(po *prefixOrigins) {
	for i := 1; i < len(po.seq); i++ {
		for j := i; j > 0 && po.seq[j] < po.seq[j-1]; j-- {
			po.seq[j], po.seq[j-1] = po.seq[j-1], po.seq[j]
			po.origins[j], po.origins[j-1] = po.origins[j-1], po.origins[j]
			po.counts[j], po.counts[j-1] = po.counts[j-1], po.counts[j]
		}
	}
}

// PrefixOrigins couples a registered prefix with the origins of its
// route objects; it is the element the coverage queries return.
type PrefixOrigins struct {
	Prefix  prefix.Prefix
	Origins []ir.ASN
}

// RoutesCovering returns every registered route prefix that covers p
// (p itself and its less-specifics), shortest first, with the origins
// of each. Unsharded, the walk is a single radix-trie descent; sharded
// it descends every part and merges (covering prefixes form a nested
// chain, so shortest-first equals Prefix.Compare order).
func (db *Database) RoutesCovering(p prefix.Prefix) []PrefixOrigins {
	if db.shardN == 1 {
		var out []PrefixOrigins
		db.parts[0].routeTrie.Covering(p, func(q prefix.Prefix, po prefixOrigins) bool {
			out = append(out, PrefixOrigins{Prefix: q, Origins: po.origins})
			return true
		})
		return out
	}
	return db.gatherWalk(func(part *routePart, yield func(prefix.Prefix, prefixOrigins) bool) {
		part.routeTrie.Covering(p, yield)
	})
}

// RoutesCoveredBy returns every registered route prefix covered by p
// (p itself and its more-specifics) in prefix order, with origins.
func (db *Database) RoutesCoveredBy(p prefix.Prefix) []PrefixOrigins {
	if db.shardN == 1 {
		var out []PrefixOrigins
		db.parts[0].routeTrie.CoveredBy(p, func(q prefix.Prefix, po prefixOrigins) bool {
			out = append(out, PrefixOrigins{Prefix: q, Origins: po.origins})
			return true
		})
		return out
	}
	return db.gatherWalk(func(part *routePart, yield func(prefix.Prefix, prefixOrigins) bool) {
		part.routeTrie.CoveredBy(p, yield)
	})
}

// gatherWalk runs one trie walk per part, then merges the gathered
// entries back into the exact order and origin layout the unsharded
// trie would have produced: entries sorted by Prefix.Compare (both
// walk kinds yield in that order within a part), equal prefixes
// coalesced with origins restored to global first-seen order via seq.
func (db *Database) gatherWalk(walk func(*routePart, func(prefix.Prefix, prefixOrigins) bool)) []PrefixOrigins {
	type ent struct {
		pfx prefix.Prefix
		po  prefixOrigins
	}
	var all []ent
	for _, part := range db.parts {
		walk(part, func(q prefix.Prefix, po prefixOrigins) bool {
			all = append(all, ent{q, po})
			return true
		})
	}
	if len(all) == 0 {
		return nil
	}
	slices.SortStableFunc(all, func(a, b ent) int { return a.pfx.Compare(b.pfx) })
	out := make([]PrefixOrigins, 0, len(all))
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].pfx == all[i].pfx {
			j++
		}
		if j == i+1 {
			out = append(out, PrefixOrigins{Prefix: all[i].pfx, Origins: all[i].po.origins})
		} else {
			var merged prefixOrigins
			for _, e := range all[i:j] {
				merged = appendOrigins(merged, e.po)
			}
			sortBySeq(&merged)
			out = append(out, PrefixOrigins{Prefix: all[i].pfx, Origins: merged.origins})
		}
		i = j
	}
	return out
}

// indexMembersByRef resolves "members by reference": an aut-num (or
// route object) with member-of: S joins set S iff S's mbrs-by-ref
// names one of the object's maintainers, or is ANY.
func (db *Database) indexMembersByRef() {
	for asn, an := range db.IR.AutNums {
		for _, setName := range an.MemberOfs {
			set, ok := db.IR.AsSets[setName]
			if !ok || !mbrsByRefAllows(set.MbrsByRef, an.MntBys) {
				continue
			}
			id := db.syms.AsSets.Intern(setName)
			db.asSetIndirect = slicePut(db.asSetIndirect, id,
				append(sliceAt(db.asSetIndirect, id), asn))
		}
	}
	for _, r := range db.IR.Routes {
		for _, setName := range r.MemberOfs {
			set, ok := db.IR.RouteSets[setName]
			if !ok || !mbrsByRefAllows(set.MbrsByRef, r.MntBys) {
				continue
			}
			id := db.syms.RouteSets.Intern(setName)
			db.routeSetIndirect = slicePut(db.routeSetIndirect, id,
				append(sliceAt(db.routeSetIndirect, id), prefix.Range{Prefix: r.Prefix}))
		}
	}
}

// asSetIndirectOf returns the by-reference members of an as-set.
func (db *Database) asSetIndirectOf(name string) []ir.ASN {
	id, ok := db.syms.AsSets.Lookup(name)
	if !ok {
		return nil
	}
	return sliceAt(db.asSetIndirect, id)
}

func (db *Database) setAsSetIndirect(name string, asns []ir.ASN) {
	db.asSetIndirect = slicePut(db.asSetIndirect, db.syms.AsSets.Intern(name), asns)
}

// flatAsSetOf returns the flat view of an as-set, or nil when
// unrecorded.
func (db *Database) flatAsSetOf(name string) *FlatAsSet {
	id, ok := db.syms.AsSets.Lookup(name)
	if !ok {
		return nil
	}
	return sliceAt(db.flatAsSets, id)
}

func (db *Database) setFlatAsSet(name string, f *FlatAsSet) {
	db.flatAsSets = slicePut(db.flatAsSets, db.syms.AsSets.Intern(name), f)
}

// routeSetIndirectOf returns the by-reference members of a route-set.
func (db *Database) routeSetIndirectOf(name string) []prefix.Range {
	id, ok := db.syms.RouteSets.Lookup(name)
	if !ok {
		return nil
	}
	return sliceAt(db.routeSetIndirect, id)
}

func (db *Database) setRouteSetIndirect(name string, ranges []prefix.Range) {
	db.routeSetIndirect = slicePut(db.routeSetIndirect, db.syms.RouteSets.Intern(name), ranges)
}

// mbrsByRefAllows implements the RFC 2622 membership-by-reference
// check.
func mbrsByRefAllows(mbrsByRef, mntBys []string) bool {
	for _, m := range mbrsByRef {
		if m == "ANY" {
			return true
		}
		for _, mnt := range mntBys {
			if m == mnt {
				return true
			}
		}
	}
	return false
}

// AutNum returns the aut-num object for an AS, if recorded.
func (db *Database) AutNum(asn ir.ASN) (*ir.AutNum, bool) {
	an, ok := db.IR.AutNums[asn]
	return an, ok
}

// RouteTable returns the table of prefixes with route objects
// originated by asn. The second result is false when the AS never
// appears as an origin (a "zero-route AS" in the paper's terms).
func (db *Database) RouteTable(asn ir.ASN) (*prefix.Table, bool) {
	t := db.routeTableOf(asn)
	return t, t != nil
}

// AsSetID resolves an as-set name to its symbol ID without interning.
func (db *Database) AsSetID(name string) (symtab.ID, bool) {
	return db.syms.AsSets.Lookup(name)
}

// AsSet returns the flattened as-set, if recorded.
func (db *Database) AsSet(name string) (*FlatAsSet, bool) {
	id, ok := db.syms.AsSets.Lookup(name)
	if !ok {
		return nil, false
	}
	return db.AsSetByID(id)
}

// AsSetByID returns the flattened as-set for a symbol ID from AsSetID.
func (db *Database) AsSetByID(id symtab.ID) (*FlatAsSet, bool) {
	f := sliceAt(db.flatAsSets, id)
	return f, f != nil
}

// RouteSet returns the flattened route-set, if recorded.
func (db *Database) RouteSet(name string) (*FlatRouteSet, bool) {
	id, ok := db.syms.RouteSets.Lookup(name)
	if !ok {
		return nil, false
	}
	return db.RouteSetByID(id)
}

// RouteSetByID returns the flattened route-set for a symbol ID.
func (db *Database) RouteSetByID(id symtab.ID) (*FlatRouteSet, bool) {
	f := sliceAt(db.flatRouteSets, id)
	return f, f != nil
}

// FilterSet returns the named filter-set object, if recorded.
func (db *Database) FilterSet(name string) (*ir.FilterSet, bool) {
	fs, ok := db.IR.FilterSets[name]
	return fs, ok
}

// PeeringSet returns the named peering-set object, if recorded.
func (db *Database) PeeringSet(name string) (*ir.PeeringSet, bool) {
	ps, ok := db.IR.PeeringSets[name]
	return ps, ok
}

// AsSetContains implements asregex.Resolver: membership of asn in the
// flattened as-set.
func (db *Database) AsSetContains(name string, asn ir.ASN) (bool, bool) {
	f, ok := db.AsSet(name)
	if !ok {
		return false, false
	}
	_, contains := f.ASNs[asn]
	return contains, true
}

// AsSetPrefixTable returns the merged route table of the as-set's
// flattened members, materialized lazily and cached. ok is false when
// the set is unrecorded.
func (db *Database) AsSetPrefixTable(name string) (*prefix.Table, bool) {
	id, ok := db.syms.AsSets.Lookup(name)
	if !ok {
		return nil, false
	}
	return db.AsSetPrefixTableByID(id)
}

// AsSetPrefixTableByID is AsSetPrefixTable keyed by symbol ID; the
// verifier's compile stage resolves names to IDs once and uses this.
func (db *Database) AsSetPrefixTableByID(id symtab.ID) (*prefix.Table, bool) {
	f := sliceAt(db.flatAsSets, id)
	if f == nil {
		return nil, false
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, cached := db.asSetTables[id]; cached {
		return t, true
	}
	var ranges []prefix.Range
	for asn := range f.ASNs {
		if t := db.routeTableOf(asn); t != nil {
			ranges = append(ranges, t.Entries()...)
		}
	}
	t := prefix.NewTable(ranges)
	db.asSetTables[id] = t
	return t, true
}
