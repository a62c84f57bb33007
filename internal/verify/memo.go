package verify

import (
	"slices"
	"sync/atomic"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// A pair's two checks read the route's prefix only through the sites
// below and afi.MatchesPrefix, which reads only its family. Everything
// else they read — the ASes of the pair and of the path on the origin
// side of it, the origin, the communities — is the pair's key. So two
// routes that agree on the key get the same two checks whenever their
// prefixes agree on every prefix test the evaluation ran: memoization
// with verifying traces (Mokhov, Mitchell and Peyton Jones, "Build
// Systems à la Carte", ICFP 2018). No reason carries a prefix, so the
// checks are reused verbatim.

// prefixTest is one compiled site that tests the route's prefix. Its
// result is all the evaluation learns of the prefix there.
type prefixTest struct {
	id     uint64 // unique in the process, for the memo's result cache
	kind   testKind
	op     prefix.RangeOp // testTable, testPeerTable
	tbl    *prefix.Table  // testTable
	ranges []prefix.Range // testRanges
}

type testKind uint8

const (
	testTable     testKind = iota // tbl.ContainsWithOp(pfx, op)
	testPeerTable                 // the route table of the step's AS, ContainsWithOp(pfx, op)
	testRanges                    // some literal range matches pfx
	testCone                      // pfx is registered to the step's AS's customer cone
)

// newTest returns a test with a fresh id.
func newTest(t prefixTest) *prefixTest {
	t.id = testIDs.Add(1)
	return &t
}

var testIDs atomic.Uint64

// coneTest is the Export Self relaxation's test; it has no parameter
// but the AS, which each step carries.
var coneTest = newTest(prefixTest{kind: testCone})

// run is t's result for prefix p, with asn the AS of a per-AS test.
func (v *Verifier) run(t *prefixTest, p prefix.Prefix, asn ir.ASN) bool {
	switch t.kind {
	case testTable:
		return t.tbl.ContainsWithOp(p, t.op)
	case testPeerTable:
		tbl, _ := v.DB.RouteTable(asn) // recorded only when the table exists
		return tbl.ContainsWithOp(p, t.op)
	case testRanges:
		for _, r := range t.ranges {
			if r.Match(p) {
				return true
			}
		}
		return false
	}
	return v.prefixRegisteredToConeOf(asn, p)
}

// traceStep is one prefix test a pair's evaluation ran, and its result.
type traceStep struct {
	test *prefixTest
	asn  ir.ASN // testPeerTable's and testCone's AS
	hit  bool
}

// test runs t on the context's prefix and, while a pair is recorded,
// appends the step to its trace.
func (v *Verifier) test(ctx *evalCtx, t *prefixTest, asn ir.ASN) bool {
	return ctx.note(t, asn, v.run(t, ctx.pfx, asn))
}

// note records a step whose result the site computed itself, and
// returns the result.
func (ctx *evalCtx) note(t *prefixTest, asn ir.ASN, hit bool) bool {
	if ctx.trace != nil {
		*ctx.trace = append(*ctx.trace, traceStep{t, asn, hit})
	}
	return hit
}

// pairMemo is the bulk arena's memo of evaluated pairs, keyed by
// (family, communities, prepend-deduplicated path from the origin
// through the importer). The sweep feeds routes in sharing order,
// where every key's routes come in one run, so the memo is a stack of
// levels, one per pair depth from the origin, that only has to hold
// the keys of the current route: a level is emptied when a route's key
// at that depth differs from its predecessor's.
type pairMemo struct {
	v4     bool
	comms  []bgpsim.Community
	path   []ir.ASN // the predecessor's deduplicated path
	levels []memoLevel
	depth  int // levels the predecessor used; those past it are empty

	key   prefix.Key // the current route's prefix
	cache *resultCache
}

// resultCache holds recent replay results by (test, AS, prefix) in a
// direct-mapped table: a key's run replays each of its origin's few
// prefixes once per path through it, against the same tests.
type resultCache [1 << resultCacheBits]cachedResult

const resultCacheBits = 8

type cachedResult struct {
	id      uint64 // 0: empty
	hi, lo  uint64
	asn     ir.ASN
	bits    uint8
	v6, hit bool
}

// memoLevel holds the variants of one key: each the checks of one
// evaluation and the trace it ran, steps[lo:hi].
type memoLevel struct {
	variants []memoVariant
	steps    []traceStep
	last     int // the variant that served or was added last, tried first
}

type memoVariant struct {
	checks [2]Check // a copy: a pointer into the reports would pin their block
	lo, hi int32
}

// maxVariants bounds a level: a key whose prefixes keep taking new
// branches starts its level over rather than scanning ever more
// variants. The corpora seen have at most three per key.
const maxVariants = 16

// enter moves the memo to the route with deduplicated path path,
// emptying the levels whose key differs from the predecessor's. It
// takes path and hands back the predecessor's buffer for reuse.
func (m *pairMemo) enter(r *bgpsim.Route, path []ir.ASN) (spare []ir.ASN) {
	v4, kept := r.Prefix.IsIPv4(), 0
	if v4 == m.v4 && slices.Equal(r.Communities, m.comms) {
		prev, n := m.path, 0
		for n < len(path) && n < len(prev) && path[len(path)-1-n] == prev[len(prev)-1-n] {
			n++
		}
		kept = max(n-1, 0)
	}
	for d := kept; d < m.depth; d++ {
		m.levels[d].reset()
	}
	m.depth = len(path) - 1
	for len(m.levels) < m.depth {
		m.levels = append(m.levels, memoLevel{})
	}
	spare = m.path
	m.v4, m.comms, m.path = v4, r.Communities, path
	m.key = r.Prefix.Key()
	return spare
}

func (l *memoLevel) reset() {
	l.variants, l.steps, l.last = l.variants[:0], l.steps[:0], 0
}

// find returns the checks of the variant whose trace the current
// route's prefix p replays, or nil. At most one can: two traces of one
// key part at a test they disagree on. The last variant used is tried
// first.
func (m *pairMemo) find(v *Verifier, l *memoLevel, p prefix.Prefix) *[2]Check {
	n := len(l.variants)
	for j := 0; j < n; j++ {
		k := l.last + j
		if k >= n {
			k -= n
		}
		vr := &l.variants[k]
		if m.replays(v, l.steps[vr.lo:vr.hi], p) {
			l.last = k
			return &vr.checks
		}
	}
	return nil
}

// replays reports whether p, the current route's prefix, gives every
// step's result.
func (m *pairMemo) replays(v *Verifier, steps []traceStep, p prefix.Prefix) bool {
	if len(steps) == 0 {
		return true
	}
	if m.cache == nil {
		m.cache = new(resultCache)
	}
	k := m.key
	for i := range steps {
		st := &steps[i]
		h := (st.test.id ^ uint64(st.asn)<<40 ^ k.Hi ^ k.Lo<<1 ^ uint64(k.Bits)<<24) * 0x9E3779B97F4A7C15
		c := &m.cache[h>>(64-resultCacheBits)]
		if c.id != st.test.id || c.asn != st.asn || c.hi != k.Hi || c.lo != k.Lo || c.bits != k.Bits || c.v6 != k.IPv6 {
			*c = cachedResult{st.test.id, k.Hi, k.Lo, st.asn, k.Bits, k.IPv6, v.run(st.test, p, st.asn)}
		}
		if c.hit != st.hit {
			return false
		}
	}
	return true
}

// record points ctx's trace at the level's steps, for the pair about to
// be evaluated, and returns where its trace starts.
func (l *memoLevel) record(ctx *evalCtx) int32 {
	if len(l.variants) == maxVariants {
		l.reset()
	}
	ctx.trace = &l.steps
	return int32(len(l.steps))
}

// add stores the evaluated pair as a variant whose trace starts at lo.
func (l *memoLevel) add(ctx *evalCtx, pair []Check, lo int32) {
	ctx.trace = nil
	l.last = len(l.variants)
	l.variants = append(l.variants, memoVariant{[2]Check(pair), lo, int32(len(l.steps))})
}
