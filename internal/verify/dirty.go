package verify

import (
	"reflect"
	"slices"

	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
)

// dirt accumulates the routes one incremental step must touch, split
// into full re-verifications and per-AS check patches (PatchRoute).
// A full mark always wins over a partial one for the same route.
type dirt struct {
	full map[int32]struct{}
	part map[int32]map[ir.ASN]CheckMask
}

func newDirt() *dirt {
	return &dirt{
		full: make(map[int32]struct{}),
		part: make(map[int32]map[ir.ASN]CheckMask),
	}
}

func (d *dirt) markFull(idx int32) {
	d.full[idx] = struct{}{}
	delete(d.part, idx)
}

func (d *dirt) markSelf(idx int32, asn ir.ASN, mask CheckMask) {
	if _, ok := d.full[idx]; ok {
		return
	}
	m := d.part[idx]
	if m == nil {
		m = make(map[ir.ASN]CheckMask, 1)
		d.part[idx] = m
	}
	m[asn] |= mask
}

// order returns every dirty route index, sorted.
func (d *dirt) order() []int32 {
	out := make([]int32, 0, len(d.full)+len(d.part))
	for idx := range d.full {
		out = append(out, idx)
	}
	for idx := range d.part {
		out = append(out, idx)
	}
	slices.Sort(out)
	return out
}

// markKeyDelta dirties the routes one touched key can affect, by
// diffing the keyed object between the old and new snapshots. It is
// what keeps an incremental step proportional to the semantic size of
// the delta rather than to the fan-out of the dependency graph: a
// program whose baked set table lost one member must be recompiled,
// but only the routes that member can reach need re-checking. deps are
// the programs depending on the key, computed before their eviction.
func (inc *Incremental) markKeyDelta(d *dirt, k depgraph.Key, oldDB, newDB *irr.Database, deps []ir.ASN) {
	switch k.Kind {
	case depgraph.KindAutNum:
		inc.markAutNumDelta(d, k.ASN, oldDB, newDB)

	case depgraph.KindRoutes:
		oldT, okO := oldDB.RouteTable(k.ASN)
		newT, okN := newDB.RouteTable(k.ASN)
		if okO != okN {
			// A route table appearing or vanishing flips the baked
			// FilterASN outcome and the run-time PeerAS lookup for every
			// prefix, not just the delta's.
			for _, idx := range inc.asRoutes[k.ASN] {
				d.markFull(idx)
			}
			inc.markDeps(d, deps)
			return
		}
		if !okO {
			return
		}
		// Changed entries shift filter and origin matching only for the
		// prefixes they cover (range operators never reach up to
		// less-specifics); PeerAS reads make the effect self-agnostic.
		for _, r := range rangeDiff(oldT.Entries(), newT.Entries()) {
			inc.markCoveredFull(d, r.Prefix)
		}

	case depgraph.KindPrefix:
		// The Export Self relaxation reads OriginsOf(route prefix) in
		// any program, so the origin set of a prefix dirties its routes
		// wholesale.
		idxs, _ := inc.pfxTrie.Get(k.Pfx)
		for _, idx := range idxs {
			d.markFull(idx)
		}

	case depgraph.KindAsSet:
		oldS, okO := oldDB.AsSet(k.Name)
		newS, okN := newDB.AsSet(k.Name)
		if okO != okN || (okO && !stringSetEqual(oldS.Unrecorded, newS.Unrecorded)) {
			// Existence or unrecorded-reference changes alter baked
			// outcomes for every prefix and peer.
			inc.markDeps(d, deps)
			return
		}
		if !okO {
			return
		}
		for _, m := range asnSymDiff(oldS.ASNs, newS.ASNs) {
			inc.markMemberDelta(d, m, oldDB, newDB, deps)
		}

	case depgraph.KindRouteSet:
		oldRS, okO := oldDB.RouteSet(k.Name)
		newRS, okN := newDB.RouteSet(k.Name)
		if okO != okN || (okO && !stringSetEqual(oldRS.Unrecorded, newRS.Unrecorded)) {
			inc.markDeps(d, deps)
			return
		}
		if !okO {
			return
		}
		for _, o := range asnSymDiff(oldRS.Origins, newRS.Origins) {
			inc.markMemberDelta(d, o, oldDB, newDB, deps)
		}
		for _, r := range rangeDiff(oldRS.Table.Entries(), newRS.Table.Entries()) {
			inc.markCoveredSelves(d, r.Prefix, deps)
		}

	default:
		// Filter-set and peering-set bodies are inlined at compile time;
		// a change rewrites the dependent programs arbitrarily.
		inc.markDeps(d, deps)
	}
}

// markAutNumDelta dirties the checks an aut-num change can flip: only
// the ones the AS itself evaluates (evalCheck reads ctx.self's object
// and nobody else's), in the directions whose rule list changed. The
// Only Provider Policies safelist inspects both rule lists but applies
// to import checks, so an export-only edit that flips the property
// still dirties imports.
func (inc *Incremental) markAutNumDelta(d *dirt, asn ir.ASN, oldDB, newDB *irr.Database) {
	oldAn, okO := oldDB.AutNum(asn)
	newAn, okN := newDB.AutNum(asn)
	var mask CheckMask
	switch {
	case okO != okN:
		mask = MaskBoth
	case !okO:
		return
	default:
		if !rulesEqual(oldAn.Imports, newAn.Imports) {
			mask |= MaskImport
		}
		if !rulesEqual(oldAn.Exports, newAn.Exports) {
			mask |= MaskExport
		}
		if mask == MaskExport &&
			inc.v.onlyProviderPolicy(asn, oldAn) != inc.v.onlyProviderPolicy(asn, newAn) {
			mask |= MaskImport
		}
	}
	if mask == 0 {
		return
	}
	for _, idx := range inc.asRoutes[asn] {
		d.markSelf(idx, asn, mask)
	}
}

// markMemberDelta dirties what one AS entering or leaving a set's flat
// closure can change, for the set's dependent programs: routes carrying
// the AS (peering matches, path-regex membership, origin relaxations)
// and routes whose prefix the AS's route objects cover (the set's
// flattened prefix table gains or loses exactly those entries).
func (inc *Incremental) markMemberDelta(d *dirt, m ir.ASN, oldDB, newDB *irr.Database, deps []ir.ASN) {
	for _, dep := range deps {
		inc.markPairSelf(d, m, dep, MaskBoth)
	}
	for _, db := range []*irr.Database{oldDB, newDB} {
		if tbl, ok := db.RouteTable(m); ok {
			for _, r := range tbl.Entries() {
				inc.markCoveredSelves(d, r.Prefix, deps)
			}
		}
	}
}

// markPairSelf dirties self's checks on routes that carry both onPath
// and self, walking the smaller of the two per-AS route lists.
func (inc *Incremental) markPairSelf(d *dirt, onPath, self ir.ASN, mask CheckMask) {
	a, b := inc.asRoutes[onPath], inc.asRoutes[self]
	if len(b) < len(a) {
		for _, idx := range b {
			if pathContains(inc.routes[idx].Path, onPath) {
				d.markSelf(idx, self, mask)
			}
		}
		return
	}
	for _, idx := range a {
		if pathContains(inc.routes[idx].Path, self) {
			d.markSelf(idx, self, mask)
		}
	}
}

// markDeps dirties every check a dependent program evaluates — the
// conservative fallback when a key's delta cannot be bounded.
func (inc *Incremental) markDeps(d *dirt, deps []ir.ASN) {
	for _, dep := range deps {
		for _, idx := range inc.asRoutes[dep] {
			d.markSelf(idx, dep, MaskBoth)
		}
	}
}

// markCoveredFull fully dirties every corpus route whose prefix base
// covers (range operators only widen toward more-specifics).
func (inc *Incremental) markCoveredFull(d *dirt, base prefix.Prefix) {
	inc.pfxTrie.CoveredBy(base, func(_ prefix.Prefix, idxs []int32) bool {
		for _, idx := range idxs {
			d.markFull(idx)
		}
		return true
	})
}

// markCoveredSelves dirties the dependent programs' checks on every
// corpus route whose prefix base covers.
func (inc *Incremental) markCoveredSelves(d *dirt, base prefix.Prefix, deps []ir.ASN) {
	inc.pfxTrie.CoveredBy(base, func(_ prefix.Prefix, idxs []int32) bool {
		for _, idx := range idxs {
			for _, dep := range deps {
				d.markSelf(idx, dep, MaskBoth)
			}
		}
		return true
	})
}

func pathContains(path []ir.ASN, asn ir.ASN) bool {
	for _, a := range path {
		if a == asn {
			return true
		}
	}
	return false
}

// rulesEqual compares two rule lists positionally. Raw preserves the
// original attribute value, so it decides equality when present; rules
// without it (synthesized in tests) fall back to a deep compare of the
// parsed tree.
func rulesEqual(a, b []ir.Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, rb := &a[i], &b[i]
		if ra.MP != rb.MP || ra.Dir != rb.Dir ||
			ra.Protocol != rb.Protocol || ra.IntoProtocol != rb.IntoProtocol {
			return false
		}
		if ra.Raw != "" && rb.Raw != "" {
			if ra.Raw != rb.Raw {
				return false
			}
			continue
		}
		if !reflect.DeepEqual(ra.Expr, rb.Expr) {
			return false
		}
	}
	return true
}

// asnSymDiff returns the symmetric difference of two ASN sets.
func asnSymDiff(a, b map[ir.ASN]struct{}) []ir.ASN {
	var out []ir.ASN
	for x := range a {
		if _, ok := b[x]; !ok {
			out = append(out, x)
		}
	}
	for x := range b {
		if _, ok := a[x]; !ok {
			out = append(out, x)
		}
	}
	return out
}

// stringSetEqual compares two string lists as sets.
func stringSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := slices.Clone(a), slices.Clone(b)
	slices.Sort(as)
	slices.Sort(bs)
	return slices.Equal(as, bs)
}

// rangeDiff returns the symmetric difference of two sorted prefix-range
// lists (prefix.Table entry order). Equal-prefix runs are compared as
// positional groups; a spurious mismatch from differing in-run order
// only over-dirties, never under-dirties.
func rangeDiff(a, b []prefix.Range) []prefix.Range {
	var out []prefix.Range
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := a[i].Prefix.Compare(b[j].Prefix); {
		case c < 0:
			out = append(out, a[i])
			i++
		case c > 0:
			out = append(out, b[j])
			j++
		default:
			p := a[i].Prefix
			ia, jb := i, j
			for ia < len(a) && a[ia].Prefix == p {
				ia++
			}
			for jb < len(b) && b[jb].Prefix == p {
				jb++
			}
			if !slices.Equal(a[i:ia], b[j:jb]) {
				out = append(out, a[i:ia]...)
				out = append(out, b[j:jb]...)
			}
			i, j = ia, jb
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
