package prefix

import (
	"sort"
)

// Table is an immutable, sorted collection of prefix ranges supporting
// the lookup the verifier needs: "is candidate prefix p matched by any
// entry?". The paper (Appendix B) notes that matching routes against
// as-set filters is the hottest operation and uses binary search over
// each AS's route objects; Table is that structure.
//
// Entries are sorted by Prefix.Compare. A lookup probes every ancestor
// of the candidate prefix (its address masked to each shorter length)
// with a binary search, so the cost is O(bits * log n) independent of
// how many entries share a short prefix.
type Table struct {
	entries []Range
	minBits [2]int // minimum base prefix length present, per family (v4, v6); 255 if none
}

// NewTable builds a Table from ranges. The input slice is copied,
// sorted, and deduplicated.
func NewTable(ranges []Range) *Table {
	es := make([]Range, len(ranges))
	copy(es, ranges)
	sort.Slice(es, func(i, j int) bool {
		if c := es[i].Prefix.Compare(es[j].Prefix); c != 0 {
			return c < 0
		}
		return rangeOpLess(es[i].Op, es[j].Op)
	})
	out := es[:0]
	for i, e := range es {
		if i > 0 && e.Prefix.Compare(es[i-1].Prefix) == 0 && e.Op == es[i-1].Op {
			continue
		}
		out = append(out, e)
	}
	t := &Table{entries: out, minBits: [2]int{255, 255}}
	for _, e := range out {
		f := famIndex(e.Prefix)
		if e.Prefix.Bits() < t.minBits[f] {
			t.minBits[f] = e.Prefix.Bits()
		}
	}
	return t
}

func famIndex(p Prefix) int {
	if p.Addr().Is4() {
		return 0
	}
	return 1
}

func rangeOpLess(a, b RangeOp) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.N != b.N {
		return a.N < b.N
	}
	return a.M < b.M
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.entries) }

// Entries returns the sorted entries. Callers must not modify the slice.
func (t *Table) Entries() []Range { return t.entries }

// Contains reports whether p matches any entry (exact or via range
// operators).
func (t *Table) Contains(p Prefix) bool { return t.match(p, NoOp, nil) }

// ContainsWithOp reports whether p matches any entry when an additional
// outer operator is applied to every entry (the paper's nonstandard
// "route-set^op" syntax applies an operator to all members of a set).
func (t *Table) ContainsWithOp(p Prefix, outer RangeOp) bool {
	return t.match(p, outer, nil)
}

// LookupCovering returns all entries whose widened set contains p.
func (t *Table) LookupCovering(p Prefix) []Range {
	var out []Range
	t.match(p, NoOp, &out)
	return out
}

// match probes each ancestor base prefix of p. When collect is non-nil,
// all matching entries are appended and the full probe runs; otherwise
// it returns at the first match.
func (t *Table) match(p Prefix, outer RangeOp, collect *[]Range) bool {
	fam := famIndex(p)
	lo := t.minBits[fam]
	if lo == 255 {
		return false
	}
	found := false
	for bits := p.Bits(); bits >= lo; bits-- {
		anc, err := p.Addr().Prefix(bits)
		if err != nil {
			continue
		}
		base := Prefix{anc}
		i := sort.Search(len(t.entries), func(i int) bool {
			return t.entries[i].Prefix.Compare(base) >= 0
		})
		for ; i < len(t.entries) && t.entries[i].Prefix.Compare(base) == 0; i++ {
			e := t.entries[i]
			if Compose(e.Op, outer).Match(e.Prefix, p) {
				if collect == nil {
					return true
				}
				*collect = append(*collect, e)
				found = true
			}
		}
	}
	return found
}

// FromPrefixes is a convenience constructor for exact-match tables built
// from bare prefixes (e.g. an AS's route objects).
func FromPrefixes(ps []Prefix) *Table {
	rs := make([]Range, len(ps))
	for i, p := range ps {
		rs[i] = Range{Prefix: p}
	}
	return NewTable(rs)
}
