package verify

import (
	"slices"
	"strings"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// This file is the compile stage of the evaluation core: it lowers an
// aut-num's policy trees once into flat predicate programs (closures),
// resolving everything that does not depend on the route at compile
// time — set names to their flattened prefix tables and ASN maps,
// filter-sets inlined up to the depth bound, AS-path regexes compiled,
// community argument lists parsed, and skip/unrecorded outcomes baked
// into constants. VerifyAll then executes programs (exec.go) instead
// of re-walking the ir trees for every route.
//
// Programs are resolved against the verifier's database snapshot at
// construction; to observe database updates, clone the database and
// build a new Verifier (the existing snapshot discipline).
//
// Semantics contract: a check's report must equal, byte for byte,
// what internal/oracle's whole-route reference (reference_test.go)
// computes by walking the ir trees directly on every check: status,
// and the exact Reason values after sorting and de-duplication. The
// oracle's C2 contract holds every draw to it.
//
// A program reads the route's prefix only through afi.MatchesPrefix,
// which reads its family, and the prefixTests of memo.go, which the
// bulk sweep's pair memo records. A site that read it any other way
// would let the memo hand one prefix's checks to another.

// triState is the outcome of pure filter evaluation.
type triState uint8

const (
	triNoMatch triState = iota
	triMatch
	triUnrecorded
)

// filterEval is the result of evaluating one filter.
type filterEval struct {
	state   triState
	reasons []Reason
}

// filterProg evaluates one compiled filter against a route context.
type filterProg func(ctx *evalCtx) filterEval

// peeringProg evaluates one compiled peering. Mismatch diagnostics
// accumulate functionally: the program returns acc, possibly grown,
// with the Reasons of every leaf that did not hold. Passing
// the accumulator by value instead of by pointer keeps its header off
// the heap (a *[]Reason argument to an indirect call escapes), and
// lets a program whose accumulator is empty return a shared baked
// slice instead of allocating — the dominant mismatch path.
type peeringProg func(ctx *evalCtx, acc []Reason) (triState, []Reason)

// factorProg evaluates one compiled policy factor.
type factorProg func(ctx *evalCtx) (Status, []Reason)

// policyProg evaluates one compiled policy expression (one rule, after
// AFI resolution).
type policyProg func(ctx *evalCtx) (Status, []Reason)

// relaxProg applies the compiled Section 5.1.1 relaxations.
type relaxProg func(ctx *evalCtx) (Status, []Reason)

// autnumProg is the compiled form of one aut-num's rules.
type autnumProg struct {
	imports []policyProg
	exports []policyProg
}

// bake returns a reasons slice with cap == len so it is safe to share
// across program executions: consumers only ever append to reason
// slices (an append on a full slice reallocates instead of scribbling
// on the shared backing array) or copy them into the check's scratch
// accumulator (execAutNum), which is what gets sorted.
func bake(rs ...Reason) []Reason { return slices.Clip(rs) }

// accumulate adds one shared baked reason to an accumulator without
// allocating on the empty-accumulator fast path.
func accumulate(acc, baked []Reason) []Reason {
	if acc == nil {
		return baked
	}
	return append(acc, baked...)
}

// reasonMatchFilter is the generic filter-mismatch fallback, shared by
// every factor program.
var reasonMatchFilter = bake(Reason{Kind: MatchFilter})

func constFilter(fe filterEval) filterProg {
	return func(*evalCtx) filterEval { return fe }
}

func (v *Verifier) compileAutNum(an *ir.AutNum, rec *depgraph.Recorder) *autnumProg {
	p := &autnumProg{
		imports: make([]policyProg, len(an.Imports)),
		exports: make([]policyProg, len(an.Exports)),
	}
	for i := range an.Imports {
		p.imports[i] = v.compileRule(&an.Imports[i], rec)
	}
	for i := range an.Exports {
		p.exports[i] = v.compileRule(&an.Exports[i], rec)
	}
	return p
}

// compileRule resolves the rule's default AFI and compiles its policy
// expression.
func (v *Verifier) compileRule(rule *ir.Rule, rec *depgraph.Recorder) policyProg {
	afi := rule.Expr.AFI
	if afi.IsZero() {
		if rule.MP {
			afi = ir.AFIAnyUnicast
		} else {
			afi = ir.AFIIPv4Unicast
		}
	}
	return v.compilePolicy(rule.Expr, afi, rec)
}

// compilePolicy compiles a structured-policy expression. Each node's
// effective AFI is fixed at compile time; the closure only checks it
// against the route prefix.
func (v *Verifier) compilePolicy(e *ir.PolicyExpr, parentAFI ir.AFI, rec *depgraph.Recorder) policyProg {
	afi := e.AFI
	if afi.IsZero() {
		afi = parentAFI
	}
	switch e.Kind {
	case ir.PolicyTerm:
		factors := make([]factorProg, len(e.Factors))
		for i := range e.Factors {
			factors[i] = v.compileFactor(&e.Factors[i], rec)
		}
		return func(ctx *evalCtx) (Status, []Reason) {
			if !afi.MatchesPrefix(ctx.pfx) {
				return Unverified, nil
			}
			best := Unverified
			var reasons []Reason
			for _, fp := range factors {
				st, rs := fp(ctx)
				if st < best {
					best = st
				}
				if len(rs) > 0 {
					if reasons == nil {
						reasons = rs // alias; baked slices have cap==len, so growth reallocates
					} else {
						reasons = append(reasons, rs...)
					}
				}
				if best == Verified {
					return Verified, nil
				}
			}
			return best, reasons
		}
	case ir.PolicyExcept:
		left := v.compilePolicy(e.Left, afi, rec)
		right := v.compilePolicy(e.Right, afi, rec)
		return func(ctx *evalCtx) (Status, []Reason) {
			if !afi.MatchesPrefix(ctx.pfx) {
				return Unverified, nil
			}
			ls, lr := left(ctx)
			if ls == Verified {
				return Verified, nil
			}
			rs, rr := right(ctx)
			if rs < ls {
				return rs, rr
			}
			return ls, append(lr, rr...)
		}
	case ir.PolicyRefine:
		left := v.compilePolicy(e.Left, afi, rec)
		right := v.compilePolicy(e.Right, afi, rec)
		return func(ctx *evalCtx) (Status, []Reason) {
			if !afi.MatchesPrefix(ctx.pfx) {
				return Unverified, nil
			}
			ls, lr := left(ctx)
			rs, rr := right(ctx)
			st := ls
			if rs > st {
				st = rs
			}
			if st == Verified {
				return Verified, nil
			}
			return st, append(lr, rr...)
		}
	}
	return func(*evalCtx) (Status, []Reason) { return Unverified, nil }
}

// compileFactor compiles one policy factor: peering programs, the
// baked skip decision, the filter program, and the relaxation program.
func (v *Verifier) compileFactor(f *ir.PolicyFactor, rec *depgraph.Recorder) factorProg {
	peerings := make([]peeringProg, len(f.Peerings))
	for i := range f.Peerings {
		peerings[i] = v.compilePeering(&f.Peerings[i].Peering, 0, rec)
	}

	// The skip decision depends only on the literal filter tree and
	// the config, so it bakes into a constant. The checks look at the
	// tree as written: a community filter hidden inside a filter-set
	// body does not trigger the factor-level skip (filter-sets are
	// dereferenced only after these checks).
	var skipReasons []Reason
	switch {
	case f.Filter == nil:
		skipReasons = bake(Reason{Kind: SkipUnsupported})
	case !v.cfg.InterpretCommunities && f.Filter.ContainsKind(ir.FilterCommunity):
		skipReasons = bake(Reason{Kind: SkipCommunityFilter})
	case f.Filter.ContainsKind(ir.FilterUnsupported):
		skipReasons = bake(Reason{Kind: SkipUnsupported})
	case v.cfg.SkipComplexRegex && filterHasComplexRegex(f.Filter):
		skipReasons = bake(Reason{Kind: SkipUnsupported})
	}

	var filter filterProg
	var relax relaxProg
	if skipReasons == nil {
		filter = v.compileFilter(f.Filter, 0, rec)
		if !v.cfg.Strict {
			relax = v.compileRelaxations(f, rec)
		}
	}

	return func(ctx *evalCtx) (Status, []Reason) {
		matched := triNoMatch
		var peerReasons []Reason
		for _, pp := range peerings {
			var st triState
			st, peerReasons = pp(ctx, peerReasons)
			if st == triMatch {
				matched = triMatch
				break
			}
			if st == triUnrecorded {
				matched = triUnrecorded
			}
		}
		switch matched {
		case triUnrecorded:
			return Unrecorded, peerReasons
		case triNoMatch:
			return Unverified, peerReasons
		}

		if skipReasons != nil {
			return Skip, skipReasons
		}

		fe := filter(ctx)
		switch fe.state {
		case triMatch:
			return Verified, nil
		case triUnrecorded:
			return Unrecorded, fe.reasons
		}
		if relax != nil {
			if st, rs := relax(ctx); st == Relaxed {
				return Relaxed, rs
			}
		}
		reasons := fe.reasons
		if len(reasons) == 0 {
			reasons = reasonMatchFilter
		}
		return Unverified, reasons
	}
}

// compileFilter compiles a filter tree. Set references resolve at
// compile time against the database snapshot; filter-sets are inlined
// up to the configured depth bound, with the over-depth and
// unrecorded outcomes baked as constants.
func (v *Verifier) compileFilter(f *ir.Filter, depth int, rec *depgraph.Recorder) filterProg {
	switch f.Kind {
	case ir.FilterAny:
		return constFilter(filterEval{state: triMatch})
	case ir.FilterNone:
		return constFilter(filterEval{state: triNoMatch})
	case ir.FilterPeerAS:
		// The referenced AS is only known at run time; evalOriginFilter
		// does the per-peer route-table lookup.
		test := newTest(prefixTest{kind: testPeerTable, op: f.Op})
		return func(ctx *evalCtx) filterEval {
			return v.evalOriginFilter(ctx.peer, test, ctx)
		}
	case ir.FilterASN:
		rec.Add(depgraph.RoutesKey(f.ASN))
		tbl, ok := v.DB.RouteTable(f.ASN)
		if !ok {
			return constFilter(filterEval{state: triUnrecorded,
				reasons: bake(Reason{Kind: UnrecordedZeroRouteAS, ASN: f.ASN})})
		}
		test := newTest(prefixTest{kind: testTable, tbl: tbl, op: f.Op})
		miss := filterEval{state: triNoMatch,
			reasons: bake(Reason{Kind: MatchFilterAsNum, ASN: f.ASN})}
		return func(ctx *evalCtx) filterEval {
			if v.test(ctx, test, 0) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	case ir.FilterAsSet:
		rec.AsSetTable(v.DB, f.Name)
		// Materializing the flattened prefix table here removes the
		// lazy-build lock from the execution hot path.
		tbl, ok := v.DB.AsSetPrefixTable(f.Name)
		if !ok {
			return constFilter(filterEval{state: triUnrecorded,
				reasons: bake(Reason{Kind: UnrecordedAsSet, Name: f.Name})})
		}
		test := newTest(prefixTest{kind: testTable, tbl: tbl, op: f.Op})
		miss := filterEval{state: triNoMatch,
			reasons: bake(Reason{Kind: MatchFilter, Name: f.Name})}
		return func(ctx *evalCtx) filterEval {
			if v.test(ctx, test, 0) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	case ir.FilterRouteSet:
		rec.RouteSetTable(v.DB, f.Name)
		rs, ok := v.DB.RouteSet(f.Name)
		if !ok {
			return constFilter(filterEval{state: triUnrecorded,
				reasons: bake(Reason{Kind: UnrecordedRouteSet, Name: f.Name})})
		}
		test := newTest(prefixTest{kind: testTable, tbl: rs.Table, op: f.Op})
		miss := filterEval{state: triNoMatch,
			reasons: bake(Reason{Kind: MatchFilter, Name: f.Name})}
		return func(ctx *evalCtx) filterEval {
			if v.test(ctx, test, 0) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	case ir.FilterFilterSet:
		rec.Add(depgraph.FilterSetKey(f.Name))
		if depth >= maxFilterSetDepth {
			return constFilter(filterEval{state: triNoMatch,
				reasons: bake(Reason{Kind: MatchFilter, Name: f.Name})})
		}
		fs, ok := v.DB.FilterSet(f.Name)
		if !ok {
			return constFilter(filterEval{state: triUnrecorded,
				reasons: bake(Reason{Kind: UnrecordedFilterSet, Name: f.Name})})
		}
		return v.compileFilter(fs.Filter, depth+1, rec)
	case ir.FilterPrefixSet:
		test := newTest(prefixTest{kind: testRanges, ranges: f.Prefixes})
		miss := filterEval{state: triNoMatch, reasons: reasonMatchFilter}
		return func(ctx *evalCtx) filterEval {
			if v.test(ctx, test, 0) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	case ir.FilterPathRegex:
		var unrec []Reason
		f.Regex.WalkTerms(func(t *ir.PathTerm) {
			if t.Kind == ir.PathSet {
				rec.AsSetMembership(v.DB, t.Name)
				if _, ok := v.DB.AsSet(t.Name); !ok {
					unrec = append(unrec, Reason{Kind: UnrecordedAsSet, Name: t.Name})
				}
			}
		})
		if len(unrec) > 0 {
			return constFilter(filterEval{state: triUnrecorded, reasons: slices.Clip(unrec)})
		}
		re := v.compiledRegex(f.Regex)
		if re == nil {
			return constFilter(filterEval{state: triNoMatch, reasons: reasonMatchFilter})
		}
		miss := filterEval{state: triNoMatch, reasons: reasonMatchFilter}
		return func(ctx *evalCtx) filterEval {
			if re.Match(ctx.path, ctx.peer, v.DB) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	case ir.FilterAnd:
		l := v.compileFilter(f.Left, depth, rec)
		r := v.compileFilter(f.Right, depth, rec)
		return func(ctx *evalCtx) filterEval {
			return combineAnd(l(ctx), r(ctx))
		}
	case ir.FilterOr:
		l := v.compileFilter(f.Left, depth, rec)
		r := v.compileFilter(f.Right, depth, rec)
		return func(ctx *evalCtx) filterEval {
			le := l(ctx)
			if le.state == triMatch {
				return le
			}
			re := r(ctx)
			if re.state == triMatch {
				return re
			}
			if le.state == triUnrecorded || re.state == triUnrecorded {
				return filterEval{state: triUnrecorded, reasons: append(le.reasons, re.reasons...)}
			}
			return filterEval{state: triNoMatch, reasons: append(le.reasons, re.reasons...)}
		}
	case ir.FilterNot:
		inner := v.compileFilter(f.Left, depth, rec)
		miss := filterEval{state: triNoMatch, reasons: reasonMatchFilter}
		return func(ctx *evalCtx) filterEval {
			fe := inner(ctx)
			switch fe.state {
			case triMatch:
				return miss
			case triNoMatch:
				return filterEval{state: triMatch}
			default:
				return fe
			}
		}
	case ir.FilterCommunity:
		// Reached with InterpretCommunities off only when inlined from
		// a filter-set body (the factor-level skip looks at the literal
		// tree); those evaluate to no-match.
		comms, valid := parseCommunityCall(f.Call)
		if !v.cfg.InterpretCommunities || !valid {
			return constFilter(filterEval{state: triNoMatch, reasons: reasonMatchFilter})
		}
		miss := filterEval{state: triNoMatch, reasons: reasonMatchFilter}
		return func(ctx *evalCtx) filterEval {
			if communitiesContainAll(comms, ctx.communities) {
				return filterEval{state: triMatch}
			}
			return miss
		}
	}
	// FilterUnsupported nested below the factor level: no match, the
	// conservative fallback.
	return constFilter(filterEval{state: triNoMatch, reasons: reasonMatchFilter})
}

// parseCommunityCall parses the argument list of a community(...) or
// community.contains(...) call. ok is false for unknown methods,
// empty argument lists, and unparseable communities (which match
// nothing).
func parseCommunityCall(call string) ([]bgpsim.Community, bool) {
	open := strings.IndexByte(call, '(')
	close := strings.LastIndexByte(call, ')')
	if open < 0 || close <= open {
		return nil, false
	}
	method := call[:open]
	if method != "" && method != ".contains" && method != ".==" {
		return nil, false
	}
	args := call[open+1 : close]
	fields := strings.FieldsFunc(args, func(r rune) bool { return r == ',' || r == ' ' })
	if len(fields) == 0 {
		return nil, false
	}
	comms := make([]bgpsim.Community, 0, len(fields))
	for _, f := range fields {
		c, err := bgpsim.ParseCommunity(f)
		if err != nil {
			return nil, false
		}
		comms = append(comms, c)
	}
	return comms, true
}

// communitiesContainAll reports whether the route carries every wanted
// community.
func communitiesContainAll(want, have []bgpsim.Community) bool {
	for _, c := range want {
		found := false
		for _, h := range have {
			if h == c {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// compilePeering compiles one peering. Peering-sets are expanded at
// compile time up to the depth bound; cyclic references terminate at
// the bound.
func (v *Verifier) compilePeering(p *ir.Peering, depth int, rec *depgraph.Recorder) peeringProg {
	if p.PeeringSet != "" {
		rec.Add(depgraph.PeeringSetKey(p.PeeringSet))
		if depth >= maxFilterSetDepth {
			return func(_ *evalCtx, acc []Reason) (triState, []Reason) { return triNoMatch, acc }
		}
		ps, ok := v.DB.PeeringSet(p.PeeringSet)
		if !ok {
			baked := bake(Reason{Kind: UnrecordedPeeringSet, Name: p.PeeringSet})
			return func(_ *evalCtx, acc []Reason) (triState, []Reason) {
				return triUnrecorded, accumulate(acc, baked)
			}
		}
		subs := make([]peeringProg, len(ps.Peerings))
		for i := range ps.Peerings {
			subs[i] = v.compilePeering(&ps.Peerings[i], depth+1, rec)
		}
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			state := triNoMatch
			for _, sp := range subs {
				var st triState
				st, acc = sp(ctx, acc)
				if st == triMatch {
					return triMatch, acc
				}
				if st == triUnrecorded {
					state = triUnrecorded
				}
			}
			return state, acc
		}
	}
	if p.ASExpr == nil {
		return func(_ *evalCtx, acc []Reason) (triState, []Reason) { return triNoMatch, acc }
	}
	return v.compileASExpr(p.ASExpr, rec)
}

// compileASExpr compiles an as-expression; as-set memberships resolve
// to the flattened ASN map at compile time.
func (v *Verifier) compileASExpr(e *ir.ASExpr, rec *depgraph.Recorder) peeringProg {
	switch e.Kind {
	case ir.ASExprAny:
		return func(_ *evalCtx, acc []Reason) (triState, []Reason) { return triMatch, acc }
	case ir.ASExprNum:
		asn := e.ASN
		baked := bake(Reason{Kind: MatchRemoteAsNum, ASN: asn})
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			if ctx.peer == asn {
				return triMatch, acc
			}
			return triNoMatch, accumulate(acc, baked)
		}
	case ir.ASExprSet:
		rec.AsSetMembership(v.DB, e.Name)
		fa, ok := v.DB.AsSet(e.Name)
		if !ok {
			baked := bake(Reason{Kind: UnrecordedAsSet, Name: e.Name})
			return func(_ *evalCtx, acc []Reason) (triState, []Reason) {
				return triUnrecorded, accumulate(acc, baked)
			}
		}
		asns := fa.ASNs
		baked := bake(Reason{Kind: MatchRemoteAsSet, Name: e.Name})
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			if _, in := asns[ctx.peer]; in {
				return triMatch, acc
			}
			return triNoMatch, accumulate(acc, baked)
		}
	case ir.ASExprAnd:
		l := v.compileASExpr(e.Left, rec)
		r := v.compileASExpr(e.Right, rec)
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			ls, acc := l(ctx, acc)
			rs, acc := r(ctx, acc)
			switch {
			case ls == triMatch && rs == triMatch:
				return triMatch, acc
			case ls == triNoMatch || rs == triNoMatch:
				return triNoMatch, acc
			default:
				return triUnrecorded, acc
			}
		}
	case ir.ASExprOr:
		l := v.compileASExpr(e.Left, rec)
		r := v.compileASExpr(e.Right, rec)
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			ls, acc := l(ctx, acc)
			if ls == triMatch {
				return triMatch, acc
			}
			rs, acc := r(ctx, acc)
			if rs == triMatch {
				return triMatch, acc
			}
			if ls == triUnrecorded || rs == triUnrecorded {
				return triUnrecorded, acc
			}
			return triNoMatch, acc
		}
	case ir.ASExprExcept:
		l := v.compileASExpr(e.Left, rec)
		r := v.compileASExpr(e.Right, rec)
		return func(ctx *evalCtx, acc []Reason) (triState, []Reason) {
			ls, acc := l(ctx, acc)
			rs, acc := r(ctx, acc)
			switch {
			case ls == triMatch && rs == triNoMatch:
				return triMatch, acc
			case ls == triNoMatch:
				return triNoMatch, acc
			case rs == triMatch:
				return triNoMatch, acc
			default:
				return triUnrecorded, acc
			}
		}
	}
	return func(_ *evalCtx, acc []Reason) (triState, []Reason) { return triNoMatch, acc }
}

// compileRelaxations compiles the Section 5.1.1 relaxed-filter checks
// for a factor. The filter and peering shape tests are static, so they
// reduce to constants; only the relationship and origin checks remain
// at run time.
func (v *Verifier) compileRelaxations(f *ir.PolicyFactor, rec *depgraph.Recorder) relaxProg {
	fIsASN := f.Filter != nil && f.Filter.Kind == ir.FilterASN
	var fASN ir.ASN
	if fIsASN {
		fASN = f.Filter.ASN
	}
	// Import Customer needs every peering to be the peer's own AS
	// number, which can only hold when every peering is the same
	// literal AS number; precompute that number.
	peerExact := len(f.Peerings) > 0
	var peerASN ir.ASN
	for i := range f.Peerings {
		e := f.Peerings[i].Peering.ASExpr
		if e == nil || e.Kind != ir.ASExprNum || (i > 0 && e.ASN != peerASN) {
			peerExact = false
			break
		}
		peerASN = e.ASN
	}
	namesOrigin := v.compileNamesOrigin(f.Filter, rec)

	exportSelf := bake(Reason{Kind: SpecExportSelf})
	importCustomer := bake(Reason{Kind: SpecImportCustomer})
	missingRoutes := bake(Reason{Kind: SpecMissingRoutes})

	return func(ctx *evalCtx) (Status, []Reason) {
		if ctx.dir == ir.DirExport && fIsASN && fASN == ctx.self {
			if ctx.prevAS != 0 && v.Rels.Rel(ctx.prevAS, ctx.self) == asrel.Customer {
				if v.test(ctx, coneTest, ctx.self) {
					return Relaxed, exportSelf
				}
			}
		}
		if ctx.dir == ir.DirImport && fIsASN && fASN == ctx.peer &&
			peerExact && peerASN == ctx.peer &&
			v.Rels.Rel(ctx.self, ctx.peer) == asrel.Provider {
			return Relaxed, importCustomer
		}
		if namesOrigin(ctx) {
			return Relaxed, missingRoutes
		}
		return Unverified, nil
	}
}

// compileNamesOrigin compiles the Missing Routes shape test: does the
// filter name the path origin (directly, via PeerAS, or via a set
// containing it)?
func (v *Verifier) compileNamesOrigin(f *ir.Filter, rec *depgraph.Recorder) func(ctx *evalCtx) bool {
	no := func(*evalCtx) bool { return false }
	if f == nil {
		return no
	}
	switch f.Kind {
	case ir.FilterASN:
		asn := f.ASN
		return func(ctx *evalCtx) bool { return asn == ctx.origin }
	case ir.FilterPeerAS:
		return func(ctx *evalCtx) bool { return ctx.peer == ctx.origin }
	case ir.FilterAsSet:
		rec.AsSetMembership(v.DB, f.Name)
		fa, ok := v.DB.AsSet(f.Name)
		if !ok {
			return no
		}
		asns := fa.ASNs
		return func(ctx *evalCtx) bool {
			_, in := asns[ctx.origin]
			return in
		}
	case ir.FilterRouteSet:
		rec.RouteSetTable(v.DB, f.Name)
		rs, ok := v.DB.RouteSet(f.Name)
		if !ok {
			return no
		}
		origins := rs.Origins
		return func(ctx *evalCtx) bool {
			_, in := origins[ctx.origin]
			return in
		}
	}
	return no
}

// filterHasComplexRegex reports whether the filter tree contains a
// path regex using ASN ranges or same-pattern operators (the paper's
// 58 future-work rules).
func filterHasComplexRegex(f *ir.Filter) bool {
	found := false
	f.Walk(func(n *ir.Filter) {
		if n.Kind != ir.FilterPathRegex {
			return
		}
		n.Regex.WalkTerms(func(t *ir.PathTerm) {
			if t.Kind == ir.PathASRange {
				found = true
			}
		})
		n.Regex.WalkNodes(func(nd *ir.PathNode) {
			if nd.Kind == ir.PathRepeat && nd.Same {
				found = true
			}
		})
	})
	return found
}

// evalOriginFilter implements the "predefined set object" semantics of
// an ASN used as a filter: the prefixes of route objects whose origin
// is that AS. An AS with no route objects at all is an unrecorded case
// (the paper's "zero-route AS").
func (v *Verifier) evalOriginFilter(asn ir.ASN, t *prefixTest, ctx *evalCtx) filterEval {
	tbl, ok := v.DB.RouteTable(asn)
	if !ok {
		return filterEval{state: triUnrecorded,
			reasons: []Reason{{Kind: UnrecordedZeroRouteAS, ASN: asn}}}
	}
	// run repeats this lookup on replay; here the table is at hand.
	if ctx.note(t, asn, tbl.ContainsWithOp(ctx.pfx, t.op)) {
		return filterEval{state: triMatch}
	}
	return filterEval{state: triNoMatch,
		reasons: []Reason{{Kind: MatchFilterAsNum, ASN: asn}}}
}

func combineAnd(l, r filterEval) filterEval {
	switch {
	case l.state == triMatch && r.state == triMatch:
		return filterEval{state: triMatch}
	case l.state == triNoMatch || r.state == triNoMatch:
		return filterEval{state: triNoMatch, reasons: append(l.reasons, r.reasons...)}
	default:
		return filterEval{state: triUnrecorded, reasons: append(l.reasons, r.reasons...)}
	}
}

// prefixRegisteredToConeOf reports whether p has a route object
// originated by asn or any AS in asn's customer cone (the Appendix C
// semantics of the Export Self relaxation).
func (v *Verifier) prefixRegisteredToConeOf(asn ir.ASN, p prefix.Prefix) bool {
	origins := v.DB.OriginsOf(p)
	if len(origins) == 0 {
		return false
	}
	cone := v.customerCone(asn)
	for _, o := range origins {
		if o == asn || cone[o] {
			return true
		}
	}
	return false
}
