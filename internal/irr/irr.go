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
	"runtime"
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

	// routesByOrigin maps each origin AS (by ASN symbol ID) to its
	// route-object prefixes. A nil entry means the AS never appears as
	// an origin.
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

// New builds the indexed database from an IR.
func New(x *ir.IR) *Database {
	db := &Database{
		IR:          x,
		syms:        symtab.NewTable(),
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

// NewSharded is New; the shard count is ignored.
//
// Deprecated: the database has one route index. Use New.
func NewSharded(x *ir.IR, _ int) *Database { return New(x) }

// ShardRouteCounts returns the database's route-object count as the
// one element of a slice.
//
// Deprecated: the database has one route index. Use len(db.IR.Routes).
func (db *Database) ShardRouteCounts() []int { return []int{len(db.IR.Routes)} }

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

// prefixOrigins is the per-prefix record in routeTrie: the distinct
// origins of a prefix's route objects in first-seen order, with counts
// parallel to origins giving each (prefix, origin) pair's route-object
// multiplicity across sources. Values shared between snapshots are
// immutable; mutators replace the slices instead of editing them.
type prefixOrigins struct {
	origins []ir.ASN
	counts  []int
}

// indexRoutes builds the per-origin route tables and the per-prefix
// origin/multiplicity trie. The two halves read only IR.Routes, so the
// trie builds on its own goroutine while the tables build over
// GOMAXPROCS origin ranges.
func (db *Database) indexRoutes() {
	routes := db.IR.Routes
	done := make(chan struct{})
	go func() {
		defer close(done)
		db.routeTrie = buildRouteTrie(routes)
	}()
	db.routesByOrigin = buildRouteTables(db.syms, routes)
	<-done
}

// buildRouteTrie indexes routes by prefix in one bulk build; Insert
// and Delete take over once it is published (update.go). A prefix's
// routes reach it one after another in route order, so its distinct
// origins are one run of a slab, cut to capacity so that an append
// reallocates, and they stay in first-seen order.
func buildRouteTrie(routes []*ir.RouteObject) *prefix.Trie[prefixOrigins] {
	// add reads the routes in prefix order: it takes their origins from
	// a copy in route order, not from the scattered objects.
	byRoute := make([]ir.ASN, len(routes))
	for i, r := range routes {
		byRoute[i] = r.Origin
	}
	origins, counts := make([]ir.ASN, 0, len(routes)), make([]int, 0, len(routes))
	return prefix.BuildTrie(len(routes), func(i int) prefix.Prefix { return routes[i].Prefix },
		func(po *prefixOrigins, i int) {
			o := byRoute[i]
			if j := slices.Index(po.origins, o); j >= 0 {
				po.counts[j]++ // fresh build: the slab is unshared
				return
			}
			origins, counts = append(origins, o), append(counts, 1)
			lo, hi := len(origins)-len(po.origins)-1, len(origins)
			po.origins, po.counts = origins[lo:hi:hi], counts[lo:hi:hi]
		})
}

// originRun is one origin's run [lo, hi) of the sorted route keys.
type originRun struct {
	id     symtab.ID
	lo, hi int
}

// buildRouteTables indexes routes by origin: one table per origin,
// keyed by its ASN symbol ID. Origins are interned serially, in
// ascending ASN order, so the ID layout depends on the routes alone;
// the tables then build over GOMAXPROCS contiguous ranges of origins,
// each writing only its own origins' slots.
func buildRouteTables(syms *symtab.Table, routes []*ir.RouteObject) []*prefix.Table {
	// keys lists every route as origin<<32 | index, so that sorting
	// groups by origin; NewTable drops duplicate prefixes.
	keys := make([]uint64, len(routes))
	for i, r := range routes {
		keys[i] = uint64(r.Origin)<<32 | uint64(i)
	}
	slices.Sort(keys)
	var runs []originRun
	for i := 0; i < len(keys); {
		j := i + 1
		for j < len(keys) && keys[j]>>32 == keys[i]>>32 {
			j++
		}
		runs = append(runs, originRun{syms.ASNs.Intern(uint32(keys[i] >> 32)), i, j})
		i = j
	}
	tables := make([]*prefix.Table, syms.ASNs.Len())
	parts := make([][]originRun, min(runtime.GOMAXPROCS(0), max(len(runs), 1)))
	for p := range parts {
		parts[p] = runs[p*len(runs)/len(parts) : (p+1)*len(runs)/len(parts)]
	}
	shard.Each(parts, func(part *[]originRun) {
		var buf []prefix.Range // NewTable copies its input
		for _, r := range *part {
			buf = buf[:0]
			for _, k := range keys[r.lo:r.hi] {
				buf = append(buf, prefix.Range{Prefix: routes[uint32(k)].Prefix})
			}
			tables[r.id] = prefix.NewTable(buf)
		}
	})
	return tables
}

// routeTableOf returns the per-origin table, or nil when the AS has no
// route objects.
func (db *Database) routeTableOf(asn ir.ASN) *prefix.Table {
	id, ok := db.syms.ASNs.Lookup(uint32(asn))
	if !ok {
		return nil
	}
	return sliceAt(db.routesByOrigin, id)
}

func (db *Database) setRouteTable(asn ir.ASN, t *prefix.Table) {
	db.routesByOrigin = slicePut(db.routesByOrigin, db.syms.ASNs.Intern(uint32(asn)), t)
}

// OriginsOf returns the origins of route objects registered for
// exactly this prefix, in first-seen order. The slice is shared with
// the index: callers must not modify it.
func (db *Database) OriginsOf(p prefix.Prefix) []ir.ASN {
	po, _ := db.routeTrie.Get(p)
	return po.origins
}

// PrefixOrigins couples a registered prefix with the origins of its
// route objects; it is the element the coverage queries return.
type PrefixOrigins struct {
	Prefix  prefix.Prefix
	Origins []ir.ASN
}

// RoutesCovering returns every registered route prefix that covers p
// (p itself and its less-specifics), shortest first, with the origins
// of each: one radix-trie descent.
func (db *Database) RoutesCovering(p prefix.Prefix) []PrefixOrigins {
	var out []PrefixOrigins
	db.routeTrie.Covering(p, func(q prefix.Prefix, po prefixOrigins) bool {
		out = append(out, PrefixOrigins{Prefix: q, Origins: po.origins})
		return true
	})
	return out
}

// RoutesCoveredBy returns every registered route prefix covered by p
// (p itself and its more-specifics) in prefix order, with origins.
func (db *Database) RoutesCoveredBy(p prefix.Prefix) []PrefixOrigins {
	var out []PrefixOrigins
	db.routeTrie.CoveredBy(p, func(q prefix.Prefix, po prefixOrigins) bool {
		out = append(out, PrefixOrigins{Prefix: q, Origins: po.origins})
		return true
	})
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
