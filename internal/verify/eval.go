package verify

import (
	"strings"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// evalCtx carries the route context through rule evaluation.
type evalCtx struct {
	// pfx is the route prefix P.
	pfx prefix.Prefix
	// path is the prepend-deduplicated AS-path, collector side first,
	// origin last.
	path []ir.ASN
	// origin is path's last AS.
	origin ir.ASN
	// self is the AS whose rule is being evaluated; peer is the other
	// AS of the pair (resolves the PeerAS keyword).
	self, peer ir.ASN
	// dir is the rule direction being checked.
	dir ir.Direction
	// prevAS is the AS the route came from before reaching self (the
	// next AS towards the origin); 0 when self is the origin. Used by
	// the Export Self relaxation.
	prevAS ir.ASN
	// communities carries the route's observed community attributes
	// for the optional community-interpretation mode.
	communities []bgpsim.Community
	// scratch is a reusable reason accumulator for the compiled
	// engine; execAutNum appends into it and the arena's dedupReasons
	// copies out, so the buffer (and its grown capacity) survives
	// across the checks of a route.
	scratch []Reason
	// arena backs the check's retained reason slices and carries the
	// per-goroutine memos; never nil.
	arena *reportArena
}

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

// evalRule evaluates one rule against the context and returns the
// rule-level status plus diagnostic reasons: Verified on a strict
// match, Skip, Unrecorded, Relaxed, or Unverified on mismatch.
func (v *Verifier) evalRule(rule *ir.Rule, ctx *evalCtx) (Status, []Reason) {
	afi := rule.Expr.AFI
	if afi.IsZero() {
		if rule.MP {
			afi = ir.AFIAnyUnicast
		} else {
			afi = ir.AFIIPv4Unicast
		}
	}
	return v.evalPolicy(rule.Expr, afi, ctx)
}

// evalPolicy walks a structured-policy expression. AFI restrictions
// narrow from the parent; a node whose AFI excludes the prefix yields
// Unverified (it simply does not apply).
func (v *Verifier) evalPolicy(e *ir.PolicyExpr, parentAFI ir.AFI, ctx *evalCtx) (Status, []Reason) {
	afi := e.AFI
	if afi.IsZero() {
		afi = parentAFI
	}
	if !afi.MatchesPrefix(ctx.pfx) {
		return Unverified, nil
	}
	switch e.Kind {
	case ir.PolicyTerm:
		best := Unverified
		var reasons []Reason
		for i := range e.Factors {
			st, rs := v.evalFactor(&e.Factors[i], ctx)
			if st < best {
				best = st
			}
			reasons = append(reasons, rs...)
			if best == Verified {
				return Verified, nil
			}
		}
		return best, reasons
	case ir.PolicyExcept:
		// Both branches accept; the exception only changes actions
		// (which verification does not interpret). A route matching
		// either branch is accepted.
		ls, lr := v.evalPolicy(e.Left, afi, ctx)
		if ls == Verified {
			return Verified, nil
		}
		rs, rr := v.evalPolicy(e.Right, afi, ctx)
		if rs < ls {
			return rs, rr
		}
		return ls, append(lr, rr...)
	case ir.PolicyRefine:
		// A route must be accepted by both sides.
		ls, lr := v.evalPolicy(e.Left, afi, ctx)
		rs, rr := v.evalPolicy(e.Right, afi, ctx)
		st := ls
		if rs > st {
			st = rs // the worse of the two governs
		}
		if st == Verified {
			return Verified, nil
		}
		return st, append(lr, rr...)
	}
	return Unverified, nil
}

// evalFactor evaluates one policy factor: peering match first, then
// filter, then the relaxed-filter checks of Section 5.1.1.
func (v *Verifier) evalFactor(f *ir.PolicyFactor, ctx *evalCtx) (Status, []Reason) {
	matched, peerReasons := v.peeringMatches(f.Peerings, ctx)
	switch matched {
	case triUnrecorded:
		return Unrecorded, peerReasons
	case triNoMatch:
		return Unverified, peerReasons
	}

	// Peering matched. Skip rules the paper does not interpret.
	if f.Filter == nil {
		return Skip, []Reason{{Kind: SkipUnsupported}}
	}
	if !v.cfg.InterpretCommunities && f.Filter.ContainsKind(ir.FilterCommunity) {
		return Skip, []Reason{{Kind: SkipCommunityFilter}}
	}
	if f.Filter.ContainsKind(ir.FilterUnsupported) {
		return Skip, []Reason{{Kind: SkipUnsupported}}
	}
	if v.cfg.SkipComplexRegex && filterHasComplexRegex(f.Filter) {
		return Skip, []Reason{{Kind: SkipUnsupported}}
	}

	fe := v.evalFilter(f.Filter, ctx, 0)
	switch fe.state {
	case triMatch:
		return Verified, nil
	case triUnrecorded:
		return Unrecorded, fe.reasons
	}

	// Strict filter mismatch: try the relaxations in the paper's order
	// (unless strict mode disables them).
	if !v.cfg.Strict {
		if st, rs := v.tryRelaxations(f, ctx); st == Relaxed {
			return Relaxed, rs
		}
	}
	reasons := fe.reasons
	if len(reasons) == 0 {
		reasons = []Reason{{Kind: MatchFilter}}
	}
	return Unverified, reasons
}

// filterHasComplexRegex reports whether the filter tree contains a
// path regex using ASN ranges or same-pattern operators (the paper's
// 58 future-work rules).
func filterHasComplexRegex(f *ir.Filter) bool {
	found := false
	f.Walk(func(n *ir.Filter) {
		if n.Kind != ir.FilterPathRegex || n.Regex == nil {
			return
		}
		n.Regex.WalkTerms(func(t *ir.PathTerm) {
			if t.Kind == ir.PathASRange {
				found = true
			}
		})
		var walkNodes func(*ir.PathNode)
		walkNodes = func(nd *ir.PathNode) {
			if nd == nil {
				return
			}
			if nd.Kind == ir.PathRepeat && nd.Same {
				found = true
			}
			for _, c := range nd.Children {
				walkNodes(c)
			}
		}
		walkNodes(n.Regex.Root)
	})
	return found
}

// evalFilter evaluates a filter strictly (no relaxations).
func (v *Verifier) evalFilter(f *ir.Filter, ctx *evalCtx, depth int) filterEval {
	switch f.Kind {
	case ir.FilterAny:
		return filterEval{state: triMatch}
	case ir.FilterNone:
		return filterEval{state: triNoMatch}
	case ir.FilterPeerAS:
		return v.evalOriginFilter(ctx.peer, f.Op, ctx)
	case ir.FilterASN:
		return v.evalOriginFilter(f.ASN, f.Op, ctx)
	case ir.FilterAsSet:
		tbl, ok := v.DB.AsSetPrefixTable(f.Name)
		if !ok {
			return filterEval{state: triUnrecorded,
				reasons: []Reason{{Kind: UnrecordedAsSet, Name: f.Name}}}
		}
		if tbl.ContainsWithOp(ctx.pfx, f.Op) {
			return filterEval{state: triMatch}
		}
		return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter, Name: f.Name}}}
	case ir.FilterRouteSet:
		rs, ok := v.DB.RouteSet(f.Name)
		if !ok {
			return filterEval{state: triUnrecorded,
				reasons: []Reason{{Kind: UnrecordedRouteSet, Name: f.Name}}}
		}
		if rs.Table.ContainsWithOp(ctx.pfx, f.Op) {
			return filterEval{state: triMatch}
		}
		return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter, Name: f.Name}}}
	case ir.FilterFilterSet:
		if depth >= maxFilterSetDepth {
			return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter, Name: f.Name}}}
		}
		fs, ok := v.DB.FilterSet(f.Name)
		if !ok {
			return filterEval{state: triUnrecorded,
				reasons: []Reason{{Kind: UnrecordedFilterSet, Name: f.Name}}}
		}
		return v.evalFilter(fs.Filter, ctx, depth+1)
	case ir.FilterPrefixSet:
		for _, r := range f.Prefixes {
			if r.Match(ctx.pfx) {
				return filterEval{state: triMatch}
			}
		}
		return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
	case ir.FilterPathRegex:
		// Unrecorded as-sets referenced by the regex surface as
		// Unrecorded, matching the paper's classification.
		var unrec []Reason
		f.Regex.WalkTerms(func(t *ir.PathTerm) {
			if t.Kind == ir.PathSet {
				if _, ok := v.DB.AsSet(t.Name); !ok {
					unrec = append(unrec, Reason{Kind: UnrecordedAsSet, Name: t.Name})
				}
			}
		})
		if len(unrec) > 0 {
			return filterEval{state: triUnrecorded, reasons: unrec}
		}
		re := v.compiledRegex(f.Regex)
		if re == nil {
			return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
		}
		if re.Match(ctx.path, ctx.peer, v.DB) {
			return filterEval{state: triMatch}
		}
		return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
	case ir.FilterAnd:
		l := v.evalFilter(f.Left, ctx, depth)
		r := v.evalFilter(f.Right, ctx, depth)
		return combineAnd(l, r)
	case ir.FilterOr:
		l := v.evalFilter(f.Left, ctx, depth)
		if l.state == triMatch {
			return l
		}
		r := v.evalFilter(f.Right, ctx, depth)
		if r.state == triMatch {
			return r
		}
		if l.state == triUnrecorded || r.state == triUnrecorded {
			return filterEval{state: triUnrecorded, reasons: append(l.reasons, r.reasons...)}
		}
		return filterEval{state: triNoMatch, reasons: append(l.reasons, r.reasons...)}
	case ir.FilterNot:
		inner := v.evalFilter(f.Left, ctx, depth)
		switch inner.state {
		case triMatch:
			return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
		case triNoMatch:
			return filterEval{state: triMatch}
		default:
			return inner
		}
	case ir.FilterCommunity:
		// Reached only when InterpretCommunities is on (otherwise the
		// factor level skips the whole rule).
		if v.cfg.InterpretCommunities && communityFilterMatches(f.Call, ctx.communities) {
			return filterEval{state: triMatch}
		}
		return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
	}
	// FilterUnsupported is intercepted at the factor level; reaching
	// here means a nested occurrence — treat as no match conservatively.
	return filterEval{state: triNoMatch, reasons: []Reason{{Kind: MatchFilter}}}
}

// communityFilterMatches evaluates community(...) and
// community.contains(...) calls: the route must carry every listed
// community. Unparseable or empty argument lists match nothing.
func communityFilterMatches(call string, communities []bgpsim.Community) bool {
	open := strings.IndexByte(call, '(')
	close := strings.LastIndexByte(call, ')')
	if open < 0 || close <= open {
		return false
	}
	method := call[:open]
	if method != "" && method != ".contains" && method != ".==" {
		return false
	}
	args := call[open+1 : close]
	fields := strings.FieldsFunc(args, func(r rune) bool { return r == ',' || r == ' ' })
	if len(fields) == 0 {
		return false
	}
	for _, f := range fields {
		c, err := bgpsim.ParseCommunity(f)
		if err != nil {
			return false
		}
		found := false
		for _, have := range communities {
			if have == c {
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

// evalOriginFilter implements the "predefined set object" semantics of
// an ASN used as a filter: the prefixes of route objects whose origin
// is that AS. An AS with no route objects at all is an unrecorded case
// (the paper's "zero-route AS").
func (v *Verifier) evalOriginFilter(asn ir.ASN, op prefix.RangeOp, ctx *evalCtx) filterEval {
	tbl, ok := v.DB.RouteTable(asn)
	if !ok {
		return filterEval{state: triUnrecorded,
			reasons: []Reason{{Kind: UnrecordedZeroRouteAS, ASN: asn}}}
	}
	if tbl.ContainsWithOp(ctx.pfx, op) {
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

// peeringMatches checks whether the remote AS matches any of the
// factor's peerings. Mismatch diagnostics accumulate into one slice to
// keep the hot path allocation-light.
func (v *Verifier) peeringMatches(pas []ir.PeeringAction, ctx *evalCtx) (triState, []Reason) {
	state := triNoMatch
	var reasons []Reason
	for i := range pas {
		st := v.evalPeering(&pas[i].Peering, ctx, 0, &reasons)
		if st == triMatch {
			return triMatch, nil
		}
		if st == triUnrecorded {
			state = triUnrecorded
		}
	}
	return state, reasons
}

func (v *Verifier) evalPeering(p *ir.Peering, ctx *evalCtx, depth int, acc *[]Reason) triState {
	if p.PeeringSet != "" {
		if depth >= maxFilterSetDepth {
			return triNoMatch
		}
		ps, ok := v.DB.PeeringSet(p.PeeringSet)
		if !ok {
			*acc = append(*acc, Reason{Kind: UnrecordedPeeringSet, Name: p.PeeringSet})
			return triUnrecorded
		}
		state := triState(triNoMatch)
		for i := range ps.Peerings {
			st := v.evalPeering(&ps.Peerings[i], ctx, depth+1, acc)
			if st == triMatch {
				return triMatch
			}
			if st == triUnrecorded {
				state = triUnrecorded
			}
		}
		return state
	}
	if p.ASExpr == nil {
		return triNoMatch
	}
	return v.evalASExpr(p.ASExpr, ctx, acc)
}

// evalASExpr checks whether the remote AS (ctx.peer) is in the
// as-expression, appending mismatch diagnostics to acc. Diagnostics
// from sub-expressions may remain in acc even when an enclosing OR
// later matches; callers discard acc on a match, and dedupReasons
// canonicalizes what is kept.
func (v *Verifier) evalASExpr(e *ir.ASExpr, ctx *evalCtx, acc *[]Reason) triState {
	switch e.Kind {
	case ir.ASExprAny:
		return triMatch
	case ir.ASExprNum:
		if e.ASN == ctx.peer {
			return triMatch
		}
		*acc = append(*acc, Reason{Kind: MatchRemoteAsNum, ASN: e.ASN})
		return triNoMatch
	case ir.ASExprSet:
		contains, recorded := v.DB.AsSetContains(e.Name, ctx.peer)
		if !recorded {
			*acc = append(*acc, Reason{Kind: UnrecordedAsSet, Name: e.Name})
			return triUnrecorded
		}
		if contains {
			return triMatch
		}
		*acc = append(*acc, Reason{Kind: MatchRemoteAsSet, Name: e.Name})
		return triNoMatch
	case ir.ASExprAnd:
		l := v.evalASExpr(e.Left, ctx, acc)
		r := v.evalASExpr(e.Right, ctx, acc)
		switch {
		case l == triMatch && r == triMatch:
			return triMatch
		case l == triNoMatch || r == triNoMatch:
			return triNoMatch
		default:
			return triUnrecorded
		}
	case ir.ASExprOr:
		l := v.evalASExpr(e.Left, ctx, acc)
		if l == triMatch {
			return triMatch
		}
		r := v.evalASExpr(e.Right, ctx, acc)
		if r == triMatch {
			return triMatch
		}
		if l == triUnrecorded || r == triUnrecorded {
			return triUnrecorded
		}
		return triNoMatch
	case ir.ASExprExcept:
		l := v.evalASExpr(e.Left, ctx, acc)
		r := v.evalASExpr(e.Right, ctx, acc)
		switch {
		case l == triMatch && r == triNoMatch:
			return triMatch
		case l == triNoMatch:
			return triNoMatch
		case r == triMatch:
			return triNoMatch
		default:
			return triUnrecorded
		}
	}
	return triNoMatch
}

// tryRelaxations applies the Section 5.1.1 relaxed-filter checks, in
// order, to a factor whose peering matched but whose filter did not.
func (v *Verifier) tryRelaxations(f *ir.PolicyFactor, ctx *evalCtx) (Status, []Reason) {
	// Export Self: the exporting AS names itself as the filter; the
	// route came from one of its customers. Relax the filter to "self
	// plus customer-cone route objects".
	if ctx.dir == ir.DirExport && filterIsExactlyASN(f.Filter, ctx.self) {
		if ctx.prevAS != 0 && v.Rels.Rel(ctx.prevAS, ctx.self) == asrel.Customer {
			if v.prefixRegisteredToConeOf(ctx.self, ctx) {
				return Relaxed, []Reason{{Kind: SpecExportSelf}}
			}
		}
	}
	// Import Customer: the importing AS names a customer C in both the
	// peering and the filter; treat the filter as ANY.
	if ctx.dir == ir.DirImport && filterIsExactlyASN(f.Filter, ctx.peer) &&
		peeringIsExactlyASN(f.Peerings, ctx.peer) &&
		v.Rels.Rel(ctx.self, ctx.peer) == asrel.Provider {
		return Relaxed, []Reason{{Kind: SpecImportCustomer}}
	}
	// Missing routes: the filter names the AS-path's origin (directly
	// or via an as-set containing it), but the route objects are
	// missing or stale.
	if filterNamesOrigin(f.Filter, ctx, v) {
		return Relaxed, []Reason{{Kind: SpecMissingRoutes}}
	}
	return Unverified, nil
}

// prefixRegisteredToConeOf reports whether the route's prefix has a
// route object originated by asn or any AS in asn's customer cone
// (the Appendix C semantics of the Export Self relaxation).
func (v *Verifier) prefixRegisteredToConeOf(asn ir.ASN, ctx *evalCtx) bool {
	origins := v.DB.OriginsOf(ctx.pfx)
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

// filterIsExactlyASN reports whether the filter is the single AS
// number (possibly with a range operator).
func filterIsExactlyASN(f *ir.Filter, asn ir.ASN) bool {
	return f != nil && f.Kind == ir.FilterASN && f.ASN == asn
}

// peeringIsExactlyASN reports whether the factor's peerings are all the
// single AS number.
func peeringIsExactlyASN(pas []ir.PeeringAction, asn ir.ASN) bool {
	if len(pas) == 0 {
		return false
	}
	for i := range pas {
		e := pas[i].Peering.ASExpr
		if e == nil || e.Kind != ir.ASExprNum || e.ASN != asn {
			return false
		}
	}
	return true
}

// filterNamesOrigin reports whether the filter is an ASN equal to the
// path origin, a PeerAS resolving to the origin, or an as-set (or
// route-set member list) containing the origin.
func filterNamesOrigin(f *ir.Filter, ctx *evalCtx, v *Verifier) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case ir.FilterASN:
		return f.ASN == ctx.origin
	case ir.FilterPeerAS:
		return ctx.peer == ctx.origin
	case ir.FilterAsSet:
		contains, recorded := v.DB.AsSetContains(f.Name, ctx.origin)
		return recorded && contains
	case ir.FilterRouteSet:
		rs, ok := v.DB.RouteSet(f.Name)
		if !ok {
			return false
		}
		_, contains := rs.Origins[ctx.origin]
		return contains
	}
	return false
}
