package verify

import (
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
)

// reportArena is the allocator every route verification writes its
// report through; one goroutine owns it for one driver call, during
// which the database must not move (the memos below assume it).
// Checks and reasons are handed out as subslices of blocks that are
// never reused, so the subslices stay valid for the life of the
// reports that reference them. The arena also carries the per-route
// scratch (deduped path, eval context), so a bulk partition's whole
// verification loop allocates only when a block fills — on paper-scale
// corpora the difference between millions of small GC-scanned objects
// and a few thousand blocks.
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
	path    []ir.ASN // dedupePrepends scratch
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

	// pairs memoizes evaluated check pairs by (prefix, communities,
	// path suffix). A pair's evaluation context never reads anything
	// closer to the collector than the importer, so routes that share
	// an origin-side suffix — the common case when several collectors
	// observe the same announcement — share their checks verbatim.
	// Cached Check values alias arena-backed Reasons; reports are
	// read-only downstream, so sharing is safe. Nil disables the memo.
	// At pairLimit entries the memo is emptied and refills, which bounds
	// what it pins and keeps it serving the routes seen most recently
	// (dumps list a prefix's paths together).
	pairs     map[string][2]Check
	pairLimit int
	key       []byte // pair-key scratch
}

const (
	// arenaBlock is the bulk drivers' block size, in checks or reasons.
	arenaBlock = 4096
	// allPairLimit bounds a VerifyAll partition's pair memo. The caller
	// keeps every report, which the memo's entries alias, so the memo
	// stays proportional to the output.
	allPairLimit = 1 << 20
	// streamPairLimit bounds a VerifyStream partition's pair memo. The
	// sink may drop each report, so the memo is all a partition retains
	// and has to stay small (~16 MiB) for the stream to run in constant
	// memory.
	streamPairLimit = 1 << 16
)

// newBulkArena returns a block-allocating arena with a pair memo of at
// most pairLimit entries, presized for a partition of the given number
// of routes.
func newBulkArena(routes, pairLimit int) *reportArena {
	return &reportArena{
		block:     arenaBlock,
		pairs:     make(map[string][2]Check, min(routes, arenaBlock)),
		pairLimit: pairLimit,
	}
}

// pairKey starts the route's pair-memo key in the arena's key scratch:
// family tag, address (4 or 16 bytes), mask bits, community count,
// communities, origin. The pair walk then appends one path AS per
// pair, origin side first, so each pair costs one append plus one map
// probe (the string(key) lookup does not allocate; only inserts do).
// Fixed field widths per tag keep the encoding bijective; IPv4 keys
// skip the 12 constant mapped-address bytes so the key hash stays
// cheap.
func (a *reportArena) pairKey(route *bgpsim.Route, origin ir.ASN) []byte {
	key := a.key[:0]
	if addr := route.Prefix.Addr(); addr.Is4() {
		a4 := addr.As4()
		key = append(key, 4)
		key = append(key, a4[:]...)
	} else {
		a16 := addr.As16()
		key = append(key, 16)
		key = append(key, a16[:]...)
	}
	nc := len(route.Communities)
	key = append(key, byte(route.Prefix.Bits()), byte(nc), byte(nc>>8))
	for _, cm := range route.Communities {
		key = appendASNKey(key, ir.ASN(cm))
	}
	return appendASNKey(key, origin)
}

// appendASNKey appends a little-endian ASN to a pair-memo key.
func appendASNKey(b []byte, a ir.ASN) []byte {
	return append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
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
