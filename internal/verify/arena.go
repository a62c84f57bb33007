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
// reference them. The arena also carries the per-route scratch and the
// instrumentation tally, so a bulk partition's verification loop
// allocates only when a block fills and writes no memory another
// partition reads.
//
// The zero value is the single-route arena: exact-size allocations and
// no pair sharing, so a report pins exactly the memory it uses — a
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

	// share makes each route copy its leading pairs from the previous
	// verified route, remembered below. A pair's evaluation never reads
	// anything closer to the collector than the importer, so routes
	// that agree on (prefix, communities, origin-side path suffix) —
	// several collectors observing one announcement — agree on those
	// pairs' checks verbatim. The bulk drivers feed routes in
	// compareForSharing order, where the predecessor shares the longest
	// suffix of any earlier route, so one remembered route finds every
	// repeat. Copies alias the predecessor's reasons, which is safe:
	// reports are read-only downstream.
	share      bool
	prevPfx    prefix.Prefix
	prevComms  []bgpsim.Community
	prevPath   []ir.ASN
	prevChecks []Check

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

// newBulkArena returns a block-allocating, pair-sharing arena.
func newBulkArena() *reportArena { return &reportArena{block: arenaBlock, share: true} }

// compareForSharing orders routes by (prefix, communities, prepend-
// deduplicated path read from the origin): the order in which every
// route's longest shared origin-side suffix is with its predecessor.
func compareForSharing(x, y *bgpsim.Route) int {
	if c := x.Prefix.Compare(y.Prefix); c != 0 {
		return c
	}
	if c := slices.Compare(x.Communities, y.Communities); c != 0 {
		return c
	}
	p, q := x.Path, y.Path
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
	return cmp.Compare(i, j) // the path that ran out first is the suffix
}

// sharedPairs returns how many leading pairs of the route with the
// given deduplicated path equal the previous route's: one fewer than
// the ASes the two paths have in common from the origin.
func (a *reportArena) sharedPairs(route *bgpsim.Route, path []ir.ASN) int {
	if route.Prefix != a.prevPfx || !slices.Equal(route.Communities, a.prevComms) {
		return 0
	}
	prev, n := a.prevPath, 0
	for n < len(path) && n < len(prev) && path[len(path)-1-n] == prev[len(prev)-1-n] {
		n++
	}
	return max(n-1, 0)
}

// checkCount is how many checks walkPairs produces for the route.
func checkCount(r *bgpsim.Route) int {
	if r.HasASSet {
		return 0
	}
	n := 0
	for i, a := range r.Path {
		if i == 0 || a != r.Path[i-1] {
			n++
		}
	}
	return 2 * max(n-1, 0)
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
// keyed by seed: how equal lists are found, here and in the store.
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
