package irr

import (
	"slices"
	"sort"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/symtab"
)

// This file implements the incremental index maintenance the NRTM
// mirror uses: instead of rebuilding every index with New after each
// journal, a clone of the database is patched in place and only the
// affected indexes are recomputed.
//
// The mutators follow a strict copy-on-write discipline: a Clone
// shares all index values (slices, tables, flat views, trie nodes)
// with its parent, so a mutator must replace an entry with a freshly
// allocated value rather than editing the shared one. Databases
// reachable by readers are therefore never modified, which is what
// makes the whoisd hot-swap race-free.

// Clone returns a mutable snapshot of the database. The clone shares
// the symbol table (append-only, so IDs remain stable), the persistent
// route trie, and every index value (slices, prefix tables, flat sets)
// with the receiver; the incremental mutators below preserve that
// sharing by replacing entries instead of editing them. The lazy
// as-set table cache starts empty, since route mutations would
// invalidate it.
func (db *Database) Clone() *Database {
	return &Database{
		IR:               db.IR.Clone(),
		syms:             db.syms,
		routesByOrigin:   slices.Clone(db.routesByOrigin),
		routeTrie:        db.routeTrie,
		asSetIndirect:    slices.Clone(db.asSetIndirect),
		routeSetIndirect: slices.Clone(db.routeSetIndirect),
		flatAsSets:       slices.Clone(db.flatAsSets),
		flatRouteSets:    slices.Clone(db.flatRouteSets),
		asSetTables:      make(map[symtab.ID]*prefix.Table),
	}
}

// AddRoute records a new route object in the route indexes. The
// caller is responsible for having appended the object to IR.Routes.
// Flattened route-sets are not updated; call ReflattenRouteSets once
// after a batch of mutations.
func (db *Database) AddRoute(r *ir.RouteObject) {
	po, _ := db.routeTrie.Get(r.Prefix)
	if i := slices.Index(po.origins, r.Origin); i >= 0 {
		counts := slices.Clone(po.counts)
		counts[i]++
		db.routeTrie = db.routeTrie.Insert(r.Prefix, prefixOrigins{origins: po.origins, counts: counts})
	} else {
		var ranges []prefix.Range
		if t := db.routeTableOf(r.Origin); t != nil {
			ranges = append(ranges, t.Entries()...)
		}
		ranges = append(ranges, prefix.Range{Prefix: r.Prefix})
		db.setRouteTable(r.Origin, prefix.NewTable(ranges))
		db.routeTrie = db.routeTrie.Insert(r.Prefix, prefixOrigins{
			origins: append(slices.Clone(po.origins), r.Origin),
			counts:  append(slices.Clone(po.counts), 1),
		})
	}
	for _, setName := range r.MemberOfs {
		set, ok := db.IR.RouteSets[setName]
		if ok && mbrsByRefAllows(set.MbrsByRef, r.MntBys) {
			db.setRouteSetIndirect(setName,
				append(slices.Clone(db.routeSetIndirectOf(setName)),
					prefix.Range{Prefix: r.Prefix}))
		}
	}
	db.invalidateAsSetTables()
}

// RemoveRoute removes a route object from the route indexes. The
// (prefix, origin) pair leaves the per-origin table and the reverse
// index only when its last route object (across sources) is gone.
func (db *Database) RemoveRoute(r *ir.RouteObject) {
	po, _ := db.routeTrie.Get(r.Prefix)
	i := slices.Index(po.origins, r.Origin)
	if i < 0 {
		return
	}
	if po.counts[i] > 1 {
		counts := slices.Clone(po.counts)
		counts[i]--
		db.routeTrie = db.routeTrie.Insert(r.Prefix, prefixOrigins{origins: po.origins, counts: counts})
	} else {
		// Last route object for the (prefix, origin) pair: the pair
		// leaves the per-origin table and the reverse index.
		if t := db.routeTableOf(r.Origin); t != nil {
			var ranges []prefix.Range
			for _, e := range t.Entries() {
				if e.Prefix != r.Prefix {
					ranges = append(ranges, e)
				}
			}
			if len(ranges) == 0 {
				db.setRouteTable(r.Origin, nil)
			} else {
				db.setRouteTable(r.Origin, prefix.NewTable(ranges))
			}
		}
		if len(po.origins) == 1 {
			db.routeTrie = db.routeTrie.Delete(r.Prefix)
		} else {
			db.routeTrie = db.routeTrie.Insert(r.Prefix, prefixOrigins{
				origins: slices.Delete(slices.Clone(po.origins), i, i+1),
				counts:  slices.Delete(slices.Clone(po.counts), i, i+1),
			})
		}
	}
	for _, setName := range r.MemberOfs {
		set, ok := db.IR.RouteSets[setName]
		if !ok || !mbrsByRefAllows(set.MbrsByRef, r.MntBys) {
			continue
		}
		old := db.routeSetIndirectOf(setName)
		for i, rg := range old {
			if rg.Prefix == r.Prefix && rg.Op == prefix.NoOp {
				fresh := make([]prefix.Range, 0, len(old)-1)
				fresh = append(fresh, old[:i]...)
				fresh = append(fresh, old[i+1:]...)
				if len(fresh) == 0 {
					db.setRouteSetIndirect(setName, nil)
				} else {
					db.setRouteSetIndirect(setName, fresh)
				}
				break
			}
		}
	}
	db.invalidateAsSetTables()
}

// UpdateAutNumRefs updates the members-by-reference index after the
// aut-num for asn changed from oldAN to newAN (either may be nil for
// object creation or deletion). It returns the names of as-sets whose
// indirect membership changed; the caller must pass them to
// ReflattenAsSets.
func (db *Database) UpdateAutNumRefs(asn ir.ASN, oldAN, newAN *ir.AutNum) []string {
	dirty := make(map[string]struct{})
	if oldAN != nil {
		for _, setName := range oldAN.MemberOfs {
			set, ok := db.IR.AsSets[setName]
			if !ok || !mbrsByRefAllows(set.MbrsByRef, oldAN.MntBys) {
				continue
			}
			old := db.asSetIndirectOf(setName)
			for i, a := range old {
				if a == asn {
					fresh := make([]ir.ASN, 0, len(old)-1)
					fresh = append(fresh, old[:i]...)
					fresh = append(fresh, old[i+1:]...)
					if len(fresh) == 0 {
						db.setAsSetIndirect(setName, nil)
					} else {
						db.setAsSetIndirect(setName, fresh)
					}
					dirty[setName] = struct{}{}
					break
				}
			}
		}
	}
	if newAN != nil {
		for _, setName := range newAN.MemberOfs {
			set, ok := db.IR.AsSets[setName]
			if !ok || !mbrsByRefAllows(set.MbrsByRef, newAN.MntBys) {
				continue
			}
			db.setAsSetIndirect(setName,
				append(slices.Clone(db.asSetIndirectOf(setName)), asn))
			dirty[setName] = struct{}{}
		}
	}
	return sortedKeys(dirty)
}

// ReindexAsSet rebuilds the members-by-reference entries of one
// as-set by scanning all aut-nums, for use after the set object
// itself changed (its mbrs-by-ref may now admit a different member
// population). The set's flat view is stale afterwards; pass the name
// to ReflattenAsSets.
func (db *Database) ReindexAsSet(name string) {
	set, ok := db.IR.AsSets[name]
	if !ok {
		db.setAsSetIndirect(name, nil)
		return
	}
	var asns []ir.ASN
	for asn, an := range db.IR.AutNums {
		for _, s := range an.MemberOfs {
			if s == name && mbrsByRefAllows(set.MbrsByRef, an.MntBys) {
				asns = append(asns, asn)
			}
		}
	}
	db.setAsSetIndirect(name, asns)
}

// ReindexRouteSet rebuilds the members-by-reference entries of one
// route-set by scanning all route objects, for use after the set
// object itself changed.
func (db *Database) ReindexRouteSet(name string) {
	set, ok := db.IR.RouteSets[name]
	if !ok {
		db.setRouteSetIndirect(name, nil)
		return
	}
	var ranges []prefix.Range
	for _, r := range db.IR.Routes {
		for _, s := range r.MemberOfs {
			if s == name && mbrsByRefAllows(set.MbrsByRef, r.MntBys) {
				ranges = append(ranges, prefix.Range{Prefix: r.Prefix})
			}
		}
	}
	db.setRouteSetIndirect(name, ranges)
}

// ReflattenAsSets computes the flattened views — transitive member
// closure, depth and loop participation, by SCC condensation — of the
// seed sets and of every set that transitively references one of them,
// reusing the flat views of unaffected sets as memoized leaves. It is
// the only as-set flatten kernel: New seeds it with every set.
// Seeds must name every as-set whose definition or indirect membership
// changed (including removed sets, whose flat entries are dropped); a
// set missed here keeps a stale flat view.
//
// The restriction is sound because "affected" is closed under reverse
// references: any reference cycle through an affected set consists
// entirely of affected sets, so an unaffected recorded member is
// never part of a recomputed SCC and its flat view is still valid.
func (db *Database) ReflattenAsSets(seeds []string) {
	if len(seeds) == 0 {
		return
	}
	sets := db.IR.AsSets

	// Reverse reference edges over the whole set graph, including
	// references to names no longer (or never) recorded: a removed
	// seed still has referrers that must be recomputed.
	reverse := make(map[string][]string)
	for name, s := range sets {
		for _, m := range s.MemberSets {
			reverse[m] = append(reverse[m], name)
		}
	}
	affected := make(map[string]struct{})
	queue := slices.Clone(seeds)
	for len(queue) > 0 {
		n := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if _, seen := affected[n]; seen {
			continue
		}
		affected[n] = struct{}{}
		queue = append(queue, reverse[n]...)
	}

	// Removed seeds lose their flat entries; their referrers now see
	// them as unrecorded.
	nodes := make([]string, 0, len(affected))
	for n := range affected {
		if _, recorded := sets[n]; recorded {
			nodes = append(nodes, n)
		} else {
			db.setFlatAsSet(n, nil)
		}
	}
	sort.Strings(nodes)

	// Restricted SCC condensation over the affected region only.
	edges := make(map[string][]string)
	for _, n := range nodes {
		for _, m := range sets[n].MemberSets {
			if _, rec := sets[m]; !rec {
				continue
			}
			if _, aff := affected[m]; aff {
				edges[n] = append(edges[n], m)
			}
		}
	}
	sccs := tarjan(nodes, edges)
	sccOf := make(map[string]int, len(nodes))
	for i, scc := range sccs {
		for _, n := range scc {
			sccOf[n] = i
		}
	}

	type sccAgg struct {
		asns       map[ir.ASN]struct{}
		unrecorded map[string]struct{}
		depth      int
	}
	aggs := make([]sccAgg, len(sccs))
	for i, scc := range sccs {
		agg := sccAgg{
			asns:       make(map[ir.ASN]struct{}),
			unrecorded: make(map[string]struct{}),
		}
		selfLoop := false
		maxChildDepth := 0
		for _, name := range scc {
			s := sets[name]
			for _, asn := range s.MemberASNs {
				agg.asns[asn] = struct{}{}
			}
			for _, asn := range db.asSetIndirectOf(name) {
				agg.asns[asn] = struct{}{}
			}
			for _, m := range s.MemberSets {
				if _, recorded := sets[m]; !recorded {
					agg.unrecorded[m] = struct{}{}
					continue
				}
				if _, aff := affected[m]; !aff {
					// Unaffected member: its flat view is still valid and
					// serves as a memoized leaf contribution.
					child := db.flatAsSetOf(m)
					for a := range child.ASNs {
						agg.asns[a] = struct{}{}
					}
					for _, u := range child.Unrecorded {
						agg.unrecorded[u] = struct{}{}
					}
					if child.Depth > maxChildDepth {
						maxChildDepth = child.Depth
					}
					continue
				}
				child := sccOf[m]
				if child == i {
					selfLoop = true
					continue
				}
				for a := range aggs[child].asns {
					agg.asns[a] = struct{}{}
				}
				for u := range aggs[child].unrecorded {
					agg.unrecorded[u] = struct{}{}
				}
				if aggs[child].depth > maxChildDepth {
					maxChildDepth = aggs[child].depth
				}
			}
		}
		agg.depth = len(scc) + maxChildDepth
		aggs[i] = agg
		inLoop := len(scc) > 1 || selfLoop
		for _, name := range scc {
			db.setFlatAsSet(name, &FlatAsSet{
				Name:       name,
				ASNs:       agg.asns,
				Unrecorded: sortedKeys(agg.unrecorded),
				Depth:      agg.depth,
				InLoop:     inLoop,
				Recursive:  len(sets[name].MemberSets) > 0,
			})
		}
	}
	db.invalidateAsSetTables()
}

// invalidateAsSetTables drops the lazily materialized as-set route
// tables; route and flat-set mutations make them stale.
func (db *Database) invalidateAsSetTables() {
	db.mu.Lock()
	db.asSetTables = make(map[symtab.ID]*prefix.Table)
	db.mu.Unlock()
}

// sortedKeys returns the keys of a string set in sorted order.
func sortedKeys(set map[string]struct{}) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
