package irr

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/symtab"
)

// assertMatchesRebuild checks that an incrementally updated database
// is semantically identical to a from-scratch New over the same IR.
// The indexes are keyed by symbol IDs that depend on intern order (a
// rebuild starts a fresh symtab, an incrementally updated clone shares
// its parent's), so the comparison projects both sides to by-name
// views; it is per-entry rather than reflect.DeepEqual because New
// also produces nondeterministic slice orders (map iteration in
// indexMembersByRef) and sharing-dependent capacities. It also checks
// the symbol-table and radix-trie structural invariants on both sides.
func assertMatchesRebuild(t *testing.T, got *Database) {
	t.Helper()
	want := New(got.IR)
	assertSymbolIndexes(t, "updated", got)
	assertSymbolIndexes(t, "rebuilt", want)

	gotRBO, wantRBO := routesByOriginView(got), routesByOriginView(want)
	assertSameKeys(t, "routesByOrigin", keysOf(gotRBO), keysOf(wantRBO))
	for asn, wt := range wantRBO {
		gt, ok := gotRBO[asn]
		if !ok {
			continue
		}
		if !slices.Equal(gt.Entries(), wt.Entries()) {
			t.Errorf("routesByOrigin[AS%d]: got %v, want %v", asn, gt.Entries(), wt.Entries())
		}
	}

	gotPR, wantPR := prefixRoutesView(got), prefixRoutesView(want)
	assertSameKeys(t, "routeTrie", keysOf(gotPR), keysOf(wantPR))
	for p, wo := range wantPR {
		if !sameOriginCounts(gotPR[p], wo) {
			t.Errorf("routeTrie[%v]: got %v, want %v", p, gotPR[p], wo)
		}
	}

	gotASI, wantASI := asSetIndirectView(got), asSetIndirectView(want)
	assertSameKeys(t, "asSetIndirect", keysOf(gotASI), keysOf(wantASI))
	for name, wa := range wantASI {
		if !sameASNMultiset(gotASI[name], wa) {
			t.Errorf("asSetIndirect[%s]: got %v, want %v", name, gotASI[name], wa)
		}
	}

	gotRSI, wantRSI := routeSetIndirectView(got), routeSetIndirectView(want)
	assertSameKeys(t, "routeSetIndirect", keysOf(gotRSI), keysOf(wantRSI))
	for name, wr := range wantRSI {
		if !sameRangeMultiset(gotRSI[name], wr) {
			t.Errorf("routeSetIndirect[%s]: got %v, want %v", name, gotRSI[name], wr)
		}
	}

	gotFAS, wantFAS := flatAsSetsView(got), flatAsSetsView(want)
	assertSameKeys(t, "flatAsSets", keysOf(gotFAS), keysOf(wantFAS))
	for name, wf := range wantFAS {
		gf, ok := gotFAS[name]
		if !ok {
			continue
		}
		if !maps.Equal(gf.ASNs, wf.ASNs) {
			t.Errorf("flatAsSets[%s].ASNs: got %v, want %v", name, gf.ASNs, wf.ASNs)
		}
		if !slices.Equal(gf.Unrecorded, wf.Unrecorded) {
			t.Errorf("flatAsSets[%s].Unrecorded: got %v, want %v", name, gf.Unrecorded, wf.Unrecorded)
		}
		if gf.Depth != wf.Depth || gf.InLoop != wf.InLoop || gf.Recursive != wf.Recursive {
			t.Errorf("flatAsSets[%s]: got depth=%d loop=%v rec=%v, want depth=%d loop=%v rec=%v",
				name, gf.Depth, gf.InLoop, gf.Recursive, wf.Depth, wf.InLoop, wf.Recursive)
		}
	}

	gotFRS, wantFRS := flatRouteSetsView(got), flatRouteSetsView(want)
	assertSameKeys(t, "flatRouteSets", keysOf(gotFRS), keysOf(wantFRS))
	for name, wf := range wantFRS {
		gf, ok := gotFRS[name]
		if !ok {
			continue
		}
		if !slices.Equal(gf.Table.Entries(), wf.Table.Entries()) {
			t.Errorf("flatRouteSets[%s].Table: got %v, want %v", name, gf.Table.Entries(), wf.Table.Entries())
		}
		if !maps.Equal(gf.Origins, wf.Origins) {
			t.Errorf("flatRouteSets[%s].Origins: got %v, want %v", name, gf.Origins, wf.Origins)
		}
		if !slices.Equal(gf.Unrecorded, wf.Unrecorded) {
			t.Errorf("flatRouteSets[%s].Unrecorded: got %v, want %v", name, gf.Unrecorded, wf.Unrecorded)
		}
		if gf.InLoop != wf.InLoop {
			t.Errorf("flatRouteSets[%s].InLoop: got %v, want %v", name, gf.InLoop, wf.InLoop)
		}
	}
}

func keysOf[K comparable, V any](m map[K]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, fmt.Sprint(k))
	}
	sort.Strings(out)
	return out
}

// The *View helpers project the symbol-ID-keyed slice indexes and the
// radix trie back to by-name maps so that databases with differently
// laid-out symbol tables (an incremental clone vs a fresh rebuild) can
// be compared.

func routesByOriginView(db *Database) map[ir.ASN]*prefix.Table {
	out := make(map[ir.ASN]*prefix.Table)
	for id, t := range db.routesByOrigin {
		if t != nil {
			out[ir.ASN(db.syms.ASNs.Key(symtab.ID(id)))] = t
		}
	}
	return out
}

func prefixRoutesView(db *Database) map[prefix.Prefix]prefixOrigins {
	out := make(map[prefix.Prefix]prefixOrigins)
	db.routeTrie.Walk(func(p prefix.Prefix, po prefixOrigins) bool {
		out[p] = po
		return true
	})
	return out
}

func asSetIndirectView(db *Database) map[string][]ir.ASN {
	out := make(map[string][]ir.ASN)
	for id, asns := range db.asSetIndirect {
		if len(asns) > 0 {
			out[db.syms.AsSets.Name(symtab.ID(id))] = asns
		}
	}
	return out
}

func routeSetIndirectView(db *Database) map[string][]prefix.Range {
	out := make(map[string][]prefix.Range)
	for id, rs := range db.routeSetIndirect {
		if len(rs) > 0 {
			out[db.syms.RouteSets.Name(symtab.ID(id))] = rs
		}
	}
	return out
}

func flatAsSetsView(db *Database) map[string]*FlatAsSet {
	out := make(map[string]*FlatAsSet)
	for id, f := range db.flatAsSets {
		if f != nil {
			out[db.syms.AsSets.Name(symtab.ID(id))] = f
		}
	}
	return out
}

func flatRouteSetsView(db *Database) map[string]*FlatRouteSet {
	out := make(map[string]*FlatRouteSet)
	for id, f := range db.flatRouteSets {
		if f != nil {
			out[db.syms.RouteSets.Name(symtab.ID(id))] = f
		}
	}
	return out
}

// assertSymbolIndexes checks the structural invariants tying the
// slice-backed indexes and the radix trie to the symbol table: no
// index extends past the interned ID range, every flat view sits in
// the slot of its own name's ID, and the trie is sorted and
// multiplicity-consistent.
func assertSymbolIndexes(t *testing.T, label string, db *Database) {
	t.Helper()
	if len(db.routesByOrigin) > db.syms.ASNs.Len() {
		t.Errorf("%s: routesByOrigin has %d slots, only %d ASNs interned",
			label, len(db.routesByOrigin), db.syms.ASNs.Len())
	}
	if len(db.asSetIndirect) > db.syms.AsSets.Len() || len(db.flatAsSets) > db.syms.AsSets.Len() {
		t.Errorf("%s: as-set indexes extend past %d interned names", label, db.syms.AsSets.Len())
	}
	if len(db.routeSetIndirect) > db.syms.RouteSets.Len() || len(db.flatRouteSets) > db.syms.RouteSets.Len() {
		t.Errorf("%s: route-set indexes extend past %d interned names", label, db.syms.RouteSets.Len())
	}
	for id, f := range db.flatAsSets {
		if f != nil && f.Name != db.syms.AsSets.Name(symtab.ID(id)) {
			t.Errorf("%s: flatAsSets[%d] holds %q, slot belongs to %q",
				label, id, f.Name, db.syms.AsSets.Name(symtab.ID(id)))
		}
	}
	for id, f := range db.flatRouteSets {
		if f != nil && f.Name != db.syms.RouteSets.Name(symtab.ID(id)) {
			t.Errorf("%s: flatRouteSets[%d] holds %q, slot belongs to %q",
				label, id, f.Name, db.syms.RouteSets.Name(symtab.ID(id)))
		}
	}
	n := 0
	var prev prefix.Prefix
	db.routeTrie.Walk(func(p prefix.Prefix, po prefixOrigins) bool {
		if n > 0 && prev.Compare(p) >= 0 {
			t.Errorf("%s: routeTrie walk not strictly sorted: %v then %v", label, prev, p)
		}
		prev = p
		n++
		if len(po.origins) == 0 || len(po.origins) != len(po.counts) {
			t.Errorf("%s: routeTrie[%v] malformed origins/counts: %v/%v",
				label, p, po.origins, po.counts)
		}
		seen := make(map[ir.ASN]bool)
		for i, o := range po.origins {
			if po.counts[i] < 1 {
				t.Errorf("%s: routeTrie[%v] count %d for AS%d", label, p, po.counts[i], o)
			}
			if seen[o] {
				t.Errorf("%s: routeTrie[%v] duplicate origin AS%d", label, p, o)
			}
			seen[o] = true
		}
		if got := db.OriginsOf(p); !slices.Equal(got, po.origins) {
			t.Errorf("%s: OriginsOf(%v) = %v, trie has %v", label, p, got, po.origins)
		}
		return true
	})
	if n != db.routeTrie.Len() {
		t.Errorf("%s: routeTrie.Len() = %d, walk visited %d", label, db.routeTrie.Len(), n)
	}
}

func assertSameKeys(t *testing.T, label string, got, want []string) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Errorf("%s keys: got %v, want %v", label, got, want)
	}
}

// sameOriginCounts compares two per-prefix records as (origin, count)
// sets, ignoring the first-seen order of the parallel slices.
func sameOriginCounts(a, b prefixOrigins) bool {
	toMap := func(po prefixOrigins) map[ir.ASN]int {
		m := make(map[ir.ASN]int, len(po.origins))
		for i, o := range po.origins {
			m[o] = po.counts[i]
		}
		return m
	}
	return maps.Equal(toMap(a), toMap(b))
}

func sameASNMultiset(a, b []ir.ASN) bool {
	sa := slices.Clone(a)
	sb := slices.Clone(b)
	slices.Sort(sa)
	slices.Sort(sb)
	return slices.Equal(sa, sb)
}

func sameRangeMultiset(a, b []prefix.Range) bool {
	key := func(rs []prefix.Range) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	return slices.Equal(key(a), key(b))
}

const updateFixture = `
aut-num: AS1
as-name: ONE
mnt-by: MNT-ONE
member-of: AS-ALPHA

aut-num: AS2
as-name: TWO
mnt-by: MNT-TWO

as-set: AS-ALPHA
members: AS2, AS-BETA
mbrs-by-ref: MNT-ONE

as-set: AS-BETA
members: AS3

as-set: AS-TOP
members: AS-ALPHA

route-set: RS-EDGE
members: 203.0.113.0/24, AS1
mbrs-by-ref: MNT-R

route: 192.0.2.0/24
origin: AS1

route: 198.51.100.0/24
origin: AS2
member-of: RS-EDGE
mnt-by: MNT-R
`

func updateDB(t *testing.T) *Database {
	t.Helper()
	return dbFrom(t, updateFixture)
}

func TestAddRouteMatchesRebuild(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	r := &ir.RouteObject{
		Prefix:    prefix.MustParse("203.0.113.0/24"),
		Origin:    2,
		MemberOfs: []string{"RS-EDGE"},
		MntBys:    []string{"MNT-R"},
		Source:    "TEST",
	}
	c.IR.Routes = append(c.IR.Routes, r)
	c.AddRoute(r)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
}

func TestAddDuplicatePairKeepsMultiplicity(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	// Same (prefix, origin) from a second source: indexes must not
	// double-count, and removing one copy must keep the pair.
	dup := &ir.RouteObject{Prefix: prefix.MustParse("192.0.2.0/24"), Origin: 1, Source: "OTHER"}
	c.IR.Routes = append(c.IR.Routes, dup)
	c.AddRoute(dup)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)

	c.IR.Routes = slices.Delete(slices.Clone(c.IR.Routes), len(c.IR.Routes)-1, len(c.IR.Routes))
	c.RemoveRoute(dup)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
	if _, ok := c.RouteTable(1); !ok {
		t.Fatal("AS1 lost its route table after removing one of two copies")
	}
}

func TestRemoveRouteMatchesRebuild(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	// Remove the member-of route; AS2 becomes a zero-route AS and
	// RS-EDGE loses its by-reference member.
	var victim *ir.RouteObject
	fresh := make([]*ir.RouteObject, 0, len(c.IR.Routes))
	for _, r := range c.IR.Routes {
		if r.Origin == 2 {
			victim = r
			continue
		}
		fresh = append(fresh, r)
	}
	c.IR.Routes = fresh
	c.RemoveRoute(victim)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
	if _, ok := c.RouteTable(2); ok {
		t.Fatal("AS2 should be a zero-route AS after removal")
	}
}

func TestUpdateAutNumRefsMatchesRebuild(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	// AS2 gains a qualifying member-of: AS-ALPHA admits MNT-ONE.
	old := c.IR.AutNums[2]
	an := *old
	an.MemberOfs = []string{"AS-ALPHA"}
	an.MntBys = []string{"MNT-ONE"}
	c.IR.AutNums[2] = &an
	dirty := c.UpdateAutNumRefs(2, old, &an)
	c.ReflattenAsSets(dirty)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)

	// And AS1 loses its membership.
	old1 := c.IR.AutNums[1]
	an1 := *old1
	an1.MemberOfs = nil
	c.IR.AutNums[1] = &an1
	dirty = c.UpdateAutNumRefs(1, old1, &an1)
	c.ReflattenAsSets(dirty)
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
}

func TestReindexAsSetMatchesRebuild(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	// AS-ALPHA widens mbrs-by-ref to ANY: AS1 still qualifies and no
	// one else claims membership, but members also change.
	old := c.IR.AsSets["AS-ALPHA"]
	set := *old
	set.MbrsByRef = []string{"ANY"}
	set.MemberSets = nil // drop AS-BETA
	c.IR.AsSets["AS-ALPHA"] = &set
	c.ReindexAsSet("AS-ALPHA")
	c.ReflattenAsSets([]string{"AS-ALPHA"})
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
}

func TestReflattenRemovedAndAddedSet(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	// Remove AS-BETA: AS-ALPHA and AS-TOP must now report it
	// unrecorded.
	delete(c.IR.AsSets, "AS-BETA")
	c.ReindexAsSet("AS-BETA")
	c.ReflattenAsSets([]string{"AS-BETA"})
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)

	// Add it back with different members.
	c2 := c.Clone()
	c2.IR.AsSets["AS-BETA"] = &ir.AsSet{Name: "AS-BETA", MemberASNs: []ir.ASN{7, 8}, Source: "TEST"}
	c2.ReindexAsSet("AS-BETA")
	c2.ReflattenAsSets([]string{"AS-BETA"})
	c2.ReflattenRouteSets()
	assertMatchesRebuild(t, c2)
}

func TestReflattenHandlesCycles(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-A
members: AS1, AS-B

as-set: AS-B
members: AS2, AS-A

as-set: AS-LEAF
members: AS9

as-set: AS-C
members: AS-A, AS-LEAF
`)
	c := db.Clone()
	// Change a member inside the cycle; the whole cycle plus AS-C must
	// recompute, while AS-LEAF stays a memoized leaf.
	old := c.IR.AsSets["AS-B"]
	set := *old
	set.MemberASNs = []ir.ASN{2, 3}
	c.IR.AsSets["AS-B"] = &set
	c.ReindexAsSet("AS-B")
	c.ReflattenAsSets([]string{"AS-B"})
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
	f, _ := c.AsSet("AS-C")
	if _, ok := f.ASNs[3]; !ok {
		t.Fatal("AS-C missed the new cycle member AS3")
	}
}

func TestReindexRouteSetMatchesRebuild(t *testing.T) {
	db := updateDB(t)
	c := db.Clone()

	old := c.IR.RouteSets["RS-EDGE"]
	set := *old
	set.MbrsByRef = []string{"ANY"}
	c.IR.RouteSets["RS-EDGE"] = &set
	c.ReindexRouteSet("RS-EDGE")
	c.ReflattenRouteSets()
	assertMatchesRebuild(t, c)
}

// TestCloneIsolation proves the copy-on-write contract: mutating a
// clone leaves the parent database byte-for-byte usable.
func TestCloneIsolation(t *testing.T) {
	db := updateDB(t)
	beforeRoutes := len(db.IR.Routes)
	beforeFlat, _ := db.AsSet("AS-ALPHA")

	c := db.Clone()
	r := &ir.RouteObject{Prefix: prefix.MustParse("203.0.113.0/24"), Origin: 1, Source: "TEST"}
	c.IR.Routes = append(c.IR.Routes, r)
	c.AddRoute(r)
	old := c.IR.AsSets["AS-ALPHA"]
	set := *old
	set.MemberASNs = []ir.ASN{2, 4}
	c.IR.AsSets["AS-ALPHA"] = &set
	c.ReindexAsSet("AS-ALPHA")
	c.ReflattenAsSets([]string{"AS-ALPHA"})
	c.ReflattenRouteSets()

	if len(db.IR.Routes) != beforeRoutes {
		t.Fatalf("parent IR.Routes grew to %d", len(db.IR.Routes))
	}
	afterFlat, _ := db.AsSet("AS-ALPHA")
	if afterFlat != beforeFlat {
		t.Fatal("parent flat as-set pointer changed")
	}
	if _, ok := afterFlat.ASNs[4]; ok {
		t.Fatal("parent flat as-set absorbed the clone's member")
	}
	if t1, _ := db.RouteTable(1); t1.Contains(prefix.MustParse("203.0.113.0/24")) {
		t.Fatal("parent route table absorbed the clone's route")
	}
	assertMatchesRebuild(t, c)
	assertMatchesRebuild(t, db)
}
