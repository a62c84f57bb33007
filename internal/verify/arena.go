package verify

import (
	"cmp"
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

	tally
}

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

// checkSlice returns a length-n slice backed by the arena; the caller
// fills the slots in place.
func (a *reportArena) checkSlice(n int) []Check {
	if len(a.checks)+n > cap(a.checks) {
		a.checks = make([]Check, 0, max(a.block, n))
	}
	off := len(a.checks)
	a.checks = a.checks[:off+n]
	return a.checks[off : off+n : off+n]
}

// reasonSlice returns a length-n slice backed by the arena for the
// caller to fill.
func (a *reportArena) reasonSlice(n int) []Reason {
	if len(a.reasons)+n > cap(a.reasons) {
		a.reasons = make([]Reason, 0, max(a.block, n))
	}
	off := len(a.reasons)
	a.reasons = a.reasons[:off+n]
	return a.reasons[off : off+n : off+n]
}

// one stores a single reason in the arena.
func (a *reportArena) one(r Reason) []Reason {
	out := a.reasonSlice(1)
	out[0] = r
	return out
}

// dedupReasons sorts rs deterministically and removes duplicates, in
// place — safe because evalCheck only ever passes it the context's
// scratch aggregate or a private allocation, never a compile-time
// constant slice — then copies the result followed by extra into arena
// storage.
func (a *reportArena) dedupReasons(rs, extra []Reason) []Reason {
	if len(rs) == 0 {
		if len(extra) == 0 {
			return nil
		}
		out := a.reasonSlice(len(extra))
		copy(out, extra)
		return out
	}
	d := rs[:1]
	if len(rs) > 1 {
		sortReasons(rs)
		for _, r := range rs[1:] {
			if r != d[len(d)-1] {
				d = append(d, r)
			}
		}
	}
	out := a.reasonSlice(len(d) + len(extra))
	copy(out, d)
	copy(out[len(d):], extra)
	return out
}
