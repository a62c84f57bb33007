package verify

import (
	"cmp"
	"hash/maphash"
	"slices"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// reportArena is the allocator every route verification writes its
// report through; one goroutine owns it for one driver call, during
// which the database must not move (the memos below assume it).
// Checks and reasons are handed out as subslices of blocks that are
// never reused, so they stay valid for the life of the reports that
// reference them. Checks may be shared between reports (share), and
// reasons between checks, so what the arena hands out is read-only.
// The arena also carries the per-route scratch and the instrumentation
// tally, so a bulk partition's verification loop allocates only when a
// block fills and writes no memory another partition reads.
//
// The zero value is the single-route arena: exact-size allocations and
// no pair memo, so a report pins exactly the memory it uses — a
// long-running mirror patches reports one at a time and must not keep
// a bulk block alive behind each.
type reportArena struct {
	// block is the allocation granularity of checks and reasons; 0
	// allocates every slice exactly.
	block   int
	checks  []Check
	reasons []Reason
	path    []ir.ASN // the current route's prepend-deduplicated path
	ctx     evalCtx  // reused route context

	// 1-entry aut-num memo: the pair walk evaluates each AS as self
	// twice in a row, and origins repeat heavily within a partition.
	lastSeen bool
	lastSelf ir.ASN
	lastAN   *ir.AutNum
	lastOK   bool

	// 1-entry compiled-program memo, keyed by aut-num pointer.
	lastProgAN *ir.AutNum
	lastProg   *autnumProg

	// memo, on a bulk arena, serves a pair's checks from an earlier
	// route's evaluation of the same key (memo.go). Served checks alias
	// that evaluation's reasons, which is safe: reports are read-only
	// downstream.
	memo *pairMemo
	// prev is the check list a bulk arena handed out last (share).
	prev []Check

	// canon, when non-nil, finds the reason lists handed out so far by
	// the hash of their content, so that an equal list is handed out
	// again, not stored again. Only sweep sets it, for a driver that
	// keeps every report: a stream's table would grow with the stream
	// and pin a block per entry, a single-route patch's outlive its report.
	canon map[uint64]canonList

	tally
}

// canonList is one canon entry: out was handed out for the input in,
// which is out itself unless in came unsorted. canonSeed keys the hash.
type canonList struct{ in, out []Reason }

var canonSeed = maphash.MakeSeed()

// arenaBlock is the bulk drivers' block size, in checks or reasons.
const arenaBlock = 4096

// newBulkArena returns a block-allocating arena with a pair memo.
func newBulkArena() *reportArena { return &reportArena{block: arenaBlock, memo: &pairMemo{}} }

// compareForSharing is the bulk sweep's evaluation order: family
// (IPv4 first), the communities' commHash, the prepend-deduplicated
// path read from the origin, then the communities. Under it the routes
// of every pair memo key — family, communities and the path from the
// origin through some importer — come in one run, but for lists whose
// hashes collide, which only costs the memo a repeat evaluation.
func compareForSharing(x, y *bgpsim.Route) int {
	if c := cmp.Compare(famIndex(x), famIndex(y)); c != 0 {
		return c
	}
	if c := cmp.Compare(commHash(x.Communities), commHash(y.Communities)); c != 0 {
		return c
	}
	if c := comparePaths(x.Path, y.Path); c != 0 {
		return c
	}
	return slices.Compare(x.Communities, y.Communities)
}

// famIndex is 0 for an IPv4 route and 1 for any other, the split
// afi.MatchesPrefix makes.
func famIndex(r *bgpsim.Route) int {
	if r.Prefix.IsIPv4() {
		return 0
	}
	return 1
}

// commHash folds a community list into 32 bits (FNV-1a), 0 for none.
func commHash(cs []bgpsim.Community) uint32 {
	if len(cs) == 0 {
		return 0
	}
	h := uint32(2166136261)
	for _, c := range cs {
		h = (h ^ uint32(c)) * 16777619
	}
	return h
}

// comparePaths orders paths by their deduplicated ASes read from the
// origin; a path sorts before those it is the origin-side part of.
func comparePaths(p, q []ir.ASN) int {
	i, j := len(p)-1, len(q)-1
	for i >= 0 && j >= 0 {
		a := p[i]
		if a != q[j] {
			return cmp.Compare(a, q[j])
		}
		for i >= 0 && p[i] == a {
			i--
		}
		for j >= 0 && q[j] == a {
			j--
		}
	}
	return cmp.Compare(i, j) // the path that ran out first sorts first
}

// radixHops is how many deduplicated hops from the origin a route's
// sort Key holds, beside its commHash; suffixHops is how many of the
// hops after those its suffixKey holds.
const (
	radixHops  = 3
	suffixHops = 6
)

// sharingOrder sorts idxs, indexes into routes, into compareForSharing
// order: a stable radix sort (prefix.SortKeys) on a Key per route
// packing its family, commHash and first radixHops hops, then a
// comparison sort of each run of equal Keys on the routes' suffixKeys.
// Its scratch, two Keys per route and one run's suffixKeys and their
// positions, is garbage when it returns.
func sharingOrder(routes []bgpsim.Route, idxs []int32) {
	keys := make([]prefix.PosKey, len(idxs))
	for k, i := range idxs {
		keys[k] = sortKey(&routes[i]).At(int(i))
	}
	prefix.SortKeys(keys)
	var group []suffixKey
	var perm []int32
	for lo := 0; lo < len(keys); {
		k, hi := keys[lo].Key(), lo
		group, perm = group[:0], perm[:0]
		for ; hi < len(keys) && keys[hi].Key() == k; hi++ {
			perm = append(perm, int32(len(group)))
			group = append(group, suffixKeyOf(&routes[keys[hi].Pos], keys[hi].Pos))
		}
		sortGroup(routes, group, perm)
		for g, p := range perm {
			idxs[lo+g] = group[p].route
		}
		lo = hi
	}
}

// sortKey is r's Key in SortKeys' order, which is family, then Hi, Lo
// and Bits: Hi holds the commHash and the origin, Lo the next two
// deduplicated hops, zero past the path's end, and Bits how many hops
// the path has (radixHops+1 standing for more). Where one path has run
// out, its zero sorts first or, against an AS 0, ties, and then the
// shorter path sorts first by Bits: the order comparePaths gives.
func sortKey(r *bgpsim.Route) prefix.Key {
	k := prefix.Key{Hi: uint64(commHash(r.Communities)) << 32, IPv6: famIndex(r) == 1}
	n := 0
	p := r.Path
	for j := len(p) - 1; j >= 0 && n <= radixHops; j-- {
		if j+1 < len(p) && p[j] == p[j+1] {
			continue
		}
		if n < radixHops {
			if n == 0 {
				k.Hi |= uint64(p[j])
			} else {
				k.Lo |= uint64(p[j]) << (32 * (2 - n))
			}
		}
		n++
	}
	k.Bits = uint8(n)
	return k
}

// suffixKey is a route's key within its run of equal sort Keys: the
// suffixHops deduplicated hops after the first radixHops, packed two
// to a word and zero past the path's end, and how many the path has
// past the first radixHops (suffixHops+1 standing for more).
type suffixKey struct {
	hops  [suffixHops / 2]uint64
	route int32
	n     uint8
	comms bool // the route has communities
}

// suffixKeyOf returns the suffixKey of r, route i.
func suffixKeyOf(r *bgpsim.Route, i int32) suffixKey {
	sk := suffixKey{route: i, comms: len(r.Communities) > 0}
	p, skip := r.Path, radixHops
	for j := len(p) - 1; j >= 0 && sk.n <= suffixHops; j-- {
		if j+1 < len(p) && p[j] == p[j+1] {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		if sk.n < suffixHops {
			sk.hops[sk.n/2] |= uint64(p[j]) << (32 * (1 - sk.n%2))
		}
		sk.n++
	}
	return sk
}

// sortGroup sorts perm, positions in group, by compareForSharing of the
// routes whose suffixKeys they hold, all of one sort Key. Packed hops
// and n order the rest of the paths as sortKey orders their start; two
// that agree on suffixHops hops and both go on are compared on the
// routes. Routes with equal paths then order by their communities.
func sortGroup(routes []bgpsim.Route, group []suffixKey, perm []int32) {
	slices.SortFunc(perm, func(a, b int32) int {
		x, y := &group[a], &group[b]
		for w := range x.hops {
			if c := cmp.Compare(x.hops[w], y.hops[w]); c != 0 {
				return c
			}
		}
		if c := cmp.Compare(x.n, y.n); c != 0 {
			return c
		}
		rx, ry := &routes[x.route], &routes[y.route]
		if x.n > suffixHops {
			if c := comparePaths(rx.Path, ry.Path); c != 0 {
				return c
			}
		}
		if x.comms || y.comms {
			return slices.Compare(rx.Communities, ry.Communities)
		}
		return 0
	})
}

// cut returns a length-n slice of arena storage for the caller to fill:
// the next n slots of *buf, or of a new block when it has no room.
func cut[T any](buf *[]T, block, n int) []T {
	if len(*buf)+n > cap(*buf) {
		*buf = make([]T, 0, max(block, n))
	}
	off := len(*buf)
	*buf = (*buf)[:off+n]
	return (*buf)[off : off+n : off+n]
}

// share hands rep, a full verification just evaluated into fresh
// slots, the list handed out last instead when the two are the same
// checks, and gives the slots back; else its list becomes the one the
// next route is held to. Along sharing order, whole runs of routes
// have one list: hash-consing against the neighbour alone.
func (a *reportArena) share(rep *RouteReport) {
	if SameChecks(rep.Checks, a.prev) {
		a.checks = a.checks[:len(a.checks)-len(rep.Checks)]
		rep.Checks = a.prev
		return
	}
	a.prev = rep.Checks
}

// SameChecks reports whether x and y hold equal checks whose reason
// lists are the same memory, so that either list may stand for both.
func SameChecks(x, y []Check) bool {
	if len(x) != len(y) || len(x) == 0 {
		return false
	}
	for i := range x {
		c, d := &x[i], &y[i]
		if c.From != d.From || c.To != d.To || c.Dir != d.Dir || c.Status != d.Status || c.Kinds != d.Kinds ||
			len(c.Reasons) != len(d.Reasons) || len(c.Reasons) > 0 && &c.Reasons[0] != &d.Reasons[0] {
			return false
		}
	}
	return true
}

// dedupReasons sorts rs deterministically and removes duplicates, in
// place — safe because evalCheck only ever passes it the context's
// scratch aggregate or a private allocation, never a compile-time
// constant slice — then stores the result followed by extra. A canon
// table also keeps the answer under the unsorted input: no second sort.
func (a *reportArena) dedupReasons(rs, extra []Reason) []Reason {
	if len(rs) < 2 {
		return a.canonical(rs, extra)
	}
	var h uint64
	var in []Reason
	if a.canon != nil {
		h = hashReasons(rs, extra)
		if out := a.find(h, rs, extra); out != nil {
			return out
		}
		in = a.store(rs, extra) // the sort reorders rs
	}
	slices.SortFunc(rs, compareReason)
	d := rs[:1]
	for _, r := range rs[1:] {
		if r != d[len(d)-1] {
			d = append(d, r)
		}
	}
	out := a.canonical(d, extra)
	if a.canon != nil {
		a.canon[h] = canonList{in, out}
	}
	return out
}

// canonical returns arena storage holding head followed by tail: the
// list handed out before for that content if a canon table has it.
func (a *reportArena) canonical(head, tail []Reason) []Reason {
	if len(head)+len(tail) == 0 {
		return nil
	}
	if a.canon == nil {
		return a.store(head, tail)
	}
	h := hashReasons(head, tail)
	out := a.find(h, head, tail)
	if out == nil {
		out = a.store(head, tail)
		a.canon[h] = canonList{out, out}
	}
	return out
}

// store copies head followed by tail into arena storage.
func (a *reportArena) store(head, tail []Reason) []Reason {
	out := cut(&a.reasons, a.block, len(head)+len(tail))
	copy(out[copy(out, head):], tail)
	return out
}

// find returns what the canon table handed out for head followed by
// tail, or nil. The compare decides, the hash is a hint: a collision
// costs one more copy of a list, never a wrong reason.
func (a *reportArena) find(h uint64, head, tail []Reason) []Reason {
	e, n := a.canon[h], len(head)
	if len(e.in) == n+len(tail) && slices.Equal(e.in[:n], head) && slices.Equal(e.in[n:], tail) {
		return e.out
	}
	return nil
}

// HashReasons folds rs into h over (kind, ASN, name) in order, names
// keyed by seed: how equal lists are found, in the arena and in
// report.ReadJSONL.
func HashReasons(seed maphash.Seed, h uint64, rs []Reason) uint64 {
	const mul = 0x9E3779B97F4A7C15
	for i := range rs {
		h = (h ^ uint64(rs[i].Kind) ^ uint64(rs[i].ASN)<<8) * mul
		if rs[i].Name != "" {
			h = (h ^ maphash.String(seed, rs[i].Name)) * mul
		}
		h ^= h >> 32
	}
	return h
}

// hashReasons hashes head followed by tail.
func hashReasons(head, tail []Reason) uint64 {
	return HashReasons(canonSeed, HashReasons(canonSeed, uint64(len(head)+len(tail)), head), tail)
}
