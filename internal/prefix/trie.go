package prefix

import (
	"math/bits"
	"net/netip"
)

// Trie is a persistent (path-copying) binary radix trie keyed by
// Prefix. It serves the longest-prefix-match style queries the whois
// front end and the reverse route index need — "which registered
// prefixes cover p?", "which are covered by p?" — in O(address bits)
// node visits instead of a scan or per-ancestor binary searches.
//
// Persistence is what lets it live inside the copy-on-write
// irr.Database snapshots: Insert and Delete return a new *Trie sharing
// all untouched nodes with the receiver, so Clone shares the trie by
// pointer and mutators swap in the returned root. A *Trie reachable by
// readers is never modified. The nil *Trie is a valid empty trie for
// all read operations.
type Trie[V any] struct {
	roots [2]*trieNode[V] // per family: v4, v6
	size  int
}

// trieNode is a path-compressed trie node. Internal branch nodes
// created by Insert carry hasVal=false; Delete splices them out again
// when they drop to one child.
type trieNode[V any] struct {
	prefix Prefix
	hasVal bool
	val    V
	child  [2]*trieNode[V]
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int {
	if t == nil {
		return 0
	}
	return t.size
}

// Insert returns a trie with p mapped to v, replacing any existing
// value. The receiver is unchanged.
func (t *Trie[V]) Insert(p Prefix, v V) *Trie[V] {
	nt := &Trie[V]{}
	if t != nil {
		nt.roots = t.roots
		nt.size = t.size
	}
	f := famIndex(p)
	added := false
	nt.roots[f] = trieInsert(nt.roots[f], p, v, &added)
	if added {
		nt.size++
	}
	return nt
}

// BuildTrie returns the trie of n prefixes, the i-th of which is
// prefixAt(i), each holding the value add leaves in it (nil if n is
// 0). add is called once for every i with the address of its prefix's
// value, and the calls for one prefix come one after another in
// ascending i. The trie is the one repeated Insert builds: its shape is
// canonical for a set of prefixes.
//
// It is built in one pass over the prefixes sorted on their Keys, which
// is the trie's pre-order: each prefix hangs below the deepest node on
// the path to the one before it that covers it, never descending from
// a root, and every node is a slot of one slab, sized by a first pass
// that only counts. No reader can hold a node before BuildTrie returns;
// after that, Insert and Delete copy paths as on any trie.
func BuildTrie[V any](n int, prefixAt func(i int) Prefix, add func(v *V, i int)) *Trie[V] {
	keys := make([]PosKey, n)
	for i := range keys {
		keys[i] = prefixAt(i).Key().At(i)
	}
	SortKeys(keys)
	return BuildSortedTrie(keys, add)
}

// BuildSortedTrie is BuildTrie over keys SortKeys has already ordered,
// for a caller that sorted them for its own use: add is called once
// for every key, in order, with the address of its prefix's value and
// the key's Pos. The trie is nil if keys is empty.
func BuildSortedTrie[V any](keys []PosKey, add func(v *V, pos int)) *Trie[V] {
	if len(keys) == 0 {
		return nil
	}
	t := &Trie[V]{}
	nodes := layout(keys, t, nil, add)
	layout(keys, t, make([]trieNode[V], nodes), add)
	return t
}

// layout hangs the prefixes of the sorted keys in t, each node a slot
// of slab taken in order, and returns how many nodes it took; with a
// nil slab it only counts them. path holds the nodes from a root to
// the last prefix hung, and the next one goes below the deepest of them
// that covers it. The slot there is taken exactly when the last prefix
// agrees with the new one past that node's length. The two then diverge
// at their common length, and a valueless branch node there takes the
// slot, with the slot's subtree (which sorts first) at child 0 and the
// new prefix at child 1. A prefix never lands on a branch node: it
// would have sorted before the prefixes the branch was made for.
func layout[V any](keys []PosKey, t *Trie[V], slab []trieNode[V], add func(*V, int)) int {
	type frame struct {
		k Key
		n *trieNode[V]
	}
	var path []frame
	build, used := slab != nil, 0
	for lo := 0; lo < len(keys); {
		k := keys[lo].Key()
		hi := lo + 1
		for hi < len(keys) && keys[hi].Key() == k {
			hi++
		}
		if lo > 0 && keys[lo-1].IPv6 != k.IPv6 {
			path = path[:0] // the first prefix of the family: an empty root
		}
		var last Key
		hasLast := len(path) > 0
		if hasLast {
			last = path[len(path)-1].k
		}
		var occupant *trieNode[V]
		for len(path) > 0 && !path[len(path)-1].k.covers(k) {
			occupant = path[len(path)-1].n
			path = path[:len(path)-1]
		}
		depth := -1
		var slot **trieNode[V]
		if len(path) > 0 {
			top := path[len(path)-1]
			depth = int(top.k.Bits)
			if build {
				slot = &top.n.child[k.bit(depth)]
			}
		} else if build {
			slot = &t.roots[famOf(k)]
		}
		if cpl := min(last.common(k), int(last.Bits), int(k.Bits)); hasLast && cpl > depth {
			bk := k.masked(cpl)
			var br *trieNode[V]
			if build {
				br = &slab[used]
				br.prefix = bk.Prefix()
				br.child[0] = occupant
				*slot, slot = br, &br.child[1]
			}
			used++
			path = append(path, frame{bk, br})
		}
		var n *trieNode[V]
		if build {
			n = &slab[used]
			n.prefix, n.hasVal = k.Prefix(), true
			*slot = n
			for _, e := range keys[lo:hi] {
				add(&n.val, int(e.Pos))
			}
			t.size++
		}
		used++
		path = append(path, frame{k, n})
		lo = hi
	}
	return used
}

// Delete returns a trie without p. The receiver is unchanged; if p was
// absent the receiver itself is returned.
func (t *Trie[V]) Delete(p Prefix) *Trie[V] {
	if t == nil {
		return nil
	}
	f := famIndex(p)
	removed := false
	root := trieDelete(t.roots[f], p, &removed)
	if !removed {
		return t
	}
	nt := &Trie[V]{roots: t.roots, size: t.size - 1}
	nt.roots[f] = root
	return nt
}

// Get returns the value stored for exactly p.
func (t *Trie[V]) Get(p Prefix) (V, bool) {
	var zero V
	if t == nil {
		return zero, false
	}
	n := t.roots[famIndex(p)]
	for n != nil {
		if n.prefix.Bits() > p.Bits() || !n.prefix.Covers(p) {
			return zero, false
		}
		if n.prefix.Bits() == p.Bits() {
			if n.hasVal {
				return n.val, true
			}
			return zero, false
		}
		n = n.child[trieBit(p.Addr(), n.prefix.Bits())]
	}
	return zero, false
}

// Covering visits every stored prefix that covers p (ancestors of p,
// including p itself), shortest first. All such prefixes lie on the
// single root-to-p path, so the walk is O(bits). Return false from
// yield to stop early.
func (t *Trie[V]) Covering(p Prefix, yield func(Prefix, V) bool) {
	if t == nil {
		return
	}
	n := t.roots[famIndex(p)]
	for n != nil {
		if n.prefix.Bits() > p.Bits() || !n.prefix.Covers(p) {
			return
		}
		if n.hasVal && !yield(n.prefix, n.val) {
			return
		}
		if n.prefix.Bits() == p.Bits() {
			return
		}
		n = n.child[trieBit(p.Addr(), n.prefix.Bits())]
	}
}

// CoveredBy visits every stored prefix covered by p (p itself and its
// more-specifics) in Prefix.Compare order. Return false from yield to
// stop early.
func (t *Trie[V]) CoveredBy(p Prefix, yield func(Prefix, V) bool) {
	if t == nil {
		return
	}
	n := t.roots[famIndex(p)]
	for n != nil && n.prefix.Bits() < p.Bits() {
		if !n.prefix.Covers(p) {
			return
		}
		n = n.child[trieBit(p.Addr(), n.prefix.Bits())]
	}
	if n == nil || !p.Covers(n.prefix) {
		return
	}
	trieWalk(n, yield)
}

// Walk visits every stored prefix in Prefix.Compare order (IPv4 before
// IPv6, then address, then length). Return false from yield to stop.
func (t *Trie[V]) Walk(yield func(Prefix, V) bool) {
	if t == nil {
		return
	}
	if !trieWalk(t.roots[0], yield) {
		return
	}
	trieWalk(t.roots[1], yield)
}

// trieWalk runs a pre-order DFS: a node's own prefix sorts before
// everything in its subtree under Prefix.Compare (same leading
// address, fewer bits), and child 0 addresses sort before child 1, so
// pre-order is Compare order.
func trieWalk[V any](n *trieNode[V], yield func(Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.hasVal && !yield(n.prefix, n.val) {
		return false
	}
	return trieWalk(n.child[0], yield) && trieWalk(n.child[1], yield)
}

func trieInsert[V any](n *trieNode[V], p Prefix, v V, added *bool) *trieNode[V] {
	if n == nil {
		*added = true
		return &trieNode[V]{prefix: p, hasVal: true, val: v}
	}
	limit := n.prefix.Bits()
	if p.Bits() < limit {
		limit = p.Bits()
	}
	cpl := trieCommonBits(n.prefix.Addr(), p.Addr(), limit)
	switch {
	case cpl == n.prefix.Bits() && cpl == p.Bits():
		nn := *n
		if !nn.hasVal {
			*added = true
		}
		nn.hasVal = true
		nn.val = v
		return &nn
	case cpl == n.prefix.Bits():
		// p is under this node: descend.
		b := trieBit(p.Addr(), cpl)
		nn := *n
		nn.child[b] = trieInsert(nn.child[b], p, v, added)
		return &nn
	case cpl == p.Bits():
		// p is an ancestor of this node: p becomes the parent.
		*added = true
		nn := &trieNode[V]{prefix: p, hasVal: true, val: v}
		nn.child[trieBit(n.prefix.Addr(), cpl)] = n
		return nn
	default:
		// Keys diverge below cpl: valueless branch node at cpl.
		*added = true
		anc, err := p.Addr().Prefix(cpl)
		if err != nil {
			// Unreachable for valid prefixes: cpl < p.Bits() <= address width.
			panic(err)
		}
		br := &trieNode[V]{prefix: Prefix{anc}}
		br.child[trieBit(n.prefix.Addr(), cpl)] = n
		br.child[trieBit(p.Addr(), cpl)] = &trieNode[V]{prefix: p, hasVal: true, val: v}
		return br
	}
}

func trieDelete[V any](n *trieNode[V], p Prefix, removed *bool) *trieNode[V] {
	if n == nil {
		return nil
	}
	if n.prefix.Bits() > p.Bits() || !n.prefix.Covers(p) {
		return n
	}
	if n.prefix.Bits() == p.Bits() {
		if !n.hasVal {
			return n
		}
		*removed = true
		switch {
		case n.child[0] == nil && n.child[1] == nil:
			return nil
		case n.child[0] == nil:
			return n.child[1]
		case n.child[1] == nil:
			return n.child[0]
		default:
			nn := *n
			nn.hasVal = false
			var zero V
			nn.val = zero
			return &nn
		}
	}
	b := trieBit(p.Addr(), n.prefix.Bits())
	nc := trieDelete(n.child[b], p, removed)
	if !*removed {
		return n
	}
	nn := *n
	nn.child[b] = nc
	if !nn.hasVal {
		// A branch node that dropped to one child is spliced out.
		if nn.child[0] == nil {
			return nn.child[1]
		}
		if nn.child[1] == nil {
			return nn.child[0]
		}
	}
	return &nn
}

// trieBit returns bit i (0 = most significant) of the address.
func trieBit(a netip.Addr, i int) int {
	if a.Is4() {
		b := a.As4()
		return int(b[i>>3]>>(7-i&7)) & 1
	}
	b := a.As16()
	return int(b[i>>3]>>(7-i&7)) & 1
}

// trieCommonBits returns the number of leading bits shared by two
// addresses of the same family, capped at limit.
func trieCommonBits(a, b netip.Addr, limit int) int {
	n := 0
	if a.Is4() {
		ab, bb := a.As4(), b.As4()
		for i := 0; i < 4; i++ {
			x := ab[i] ^ bb[i]
			if x == 0 {
				n += 8
				continue
			}
			n += bits.LeadingZeros8(x)
			break
		}
	} else {
		ab, bb := a.As16(), b.As16()
		for i := 0; i < 16; i++ {
			x := ab[i] ^ bb[i]
			if x == 0 {
				n += 8
				continue
			}
			n += bits.LeadingZeros8(x)
			break
		}
	}
	if n > limit {
		n = limit
	}
	return n
}
