package oracle

import (
	"cmp"
	"slices"
	"strings"

	"rpslyzer/internal/asregex"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/verify"
)

// reference is C2's whole-route verifier: the paper's Section 5
// procedure written once more, straight over the ir policy trees, one
// route and one check at a time. It shares no code with internal/verify
// (only its result types): its own pair walk and prepend removal, its
// own ladder, Section 5.1.1 relaxations and 5.1.2 safelist, its own
// Only Provider Policies test and its own reason sort and de-duplication,
// with no compilation, no pair sharing and no arena. So C2 holds the
// whole compiled verifier to it, not only the leaf that evaluates rules.
type reference struct {
	db   *irr.Database
	rels *asrel.Database
	cfg  verify.Config // Strict, SkipComplexRegex and InterpretCommunities

	// Pure memos, so a draw does not recompile a regex or recompute a
	// customer cone per check.
	regexes map[*ir.PathRegex]*asregex.Regex
	cones   map[ir.ASN]map[ir.ASN]bool
}

// maxSetDepth bounds filter-set and peering-set dereference chains.
const maxSetDepth = 10

// tri is the outcome of a peering or filter: no match, match, or
// undecidable because the IRR lacks an object.
type tri uint8

const (
	noMatch tri = iota
	match
	unrecorded
)

// hop is the context of one check: self's rule for the route it
// exports to or imports from peer.
type hop struct {
	pfx         prefix.Prefix
	path        []ir.ASN // as the exporter announces it: exporter first, origin last
	origin      ir.ASN
	self, peer  ir.ASN
	prev        ir.ASN // where self got the route from; 0 at the origin
	dir         ir.Direction
	communities []bgpsim.Community
}

func newReference(db *irr.Database, rels *asrel.Database, cfg verify.Config) *reference {
	return &reference{db: db, rels: rels, cfg: cfg,
		regexes: make(map[*ir.PathRegex]*asregex.Regex),
		cones:   make(map[ir.ASN]map[ir.ASN]bool)}
}

func (r *reference) verifyAll(routes []bgpsim.Route) []verify.RouteReport {
	reps := make([]verify.RouteReport, len(routes))
	for i, rt := range routes {
		reps[i] = r.route(rt)
	}
	return reps
}

// route walks the prepend-free path from the origin side: on each
// adjacent pair the exporter's export check, then the importer's import
// check. Paths with an AS-set and single-AS paths are ignored.
func (r *reference) route(rt bgpsim.Route) verify.RouteReport {
	rep := verify.RouteReport{Route: rt}
	if rt.HasASSet {
		rep.Ignored = "as-set"
		return rep
	}
	path := slices.Compact(slices.Clone(rt.Path))
	if len(path) < 2 {
		rep.Ignored = "single-as"
		return rep
	}
	rep.Checks = make([]verify.Check, 0, 2*(len(path)-1))
	for i := len(path) - 2; i >= 0; i-- {
		exporter, importer := path[i+1], path[i]
		h := hop{pfx: rt.Prefix, path: path[i+1:], origin: path[len(path)-1], communities: rt.Communities}
		exp, imp := h, h
		exp.self, exp.peer, exp.dir = exporter, importer, ir.DirExport
		if i+2 < len(path) {
			exp.prev = path[i+2]
		}
		imp.self, imp.peer, imp.prev, imp.dir = importer, exporter, exporter, ir.DirImport
		rep.Checks = append(rep.Checks, r.check(&exp), r.check(&imp))
	}
	return rep
}

// check classifies one check by the ladder: the best status of any of
// self's rules in the direction, then the safelist for what is still
// Unverified. Its reasons are every rule's, sorted, without duplicates,
// followed by the safelist's.
func (r *reference) check(h *hop) verify.Check {
	c := verify.Check{From: h.peer, To: h.self, Dir: h.dir}
	if h.dir == ir.DirExport {
		c.From, c.To = h.self, h.peer
	}
	an, ok := r.db.AutNum(h.self)
	if !ok {
		c.Status, c.Kinds, c.Reasons = verify.Unrecorded, 1<<verify.UnrecordedAutNum, []verify.Reason{{Kind: verify.UnrecordedAutNum, ASN: h.self}}
		return c
	}
	rules := an.Imports
	if h.dir == ir.DirExport {
		rules = an.Exports
	}
	if len(rules) == 0 {
		c.Status, c.Kinds, c.Reasons = verify.Unrecorded, 1<<verify.UnrecordedNoRules, []verify.Reason{{Kind: verify.UnrecordedNoRules}}
		return c
	}
	best, reasons := verify.Unverified, []verify.Reason(nil)
	for i := range rules {
		afi := ir.AFIIPv4Unicast
		if rules[i].MP {
			afi = ir.AFIAnyUnicast
		}
		st, rs := r.policy(rules[i].Expr, afi, h)
		if st == verify.Verified {
			c.Status = verify.Verified
			return c
		}
		best, reasons = min(best, st), append(reasons, rs...)
	}
	slices.SortFunc(reasons, func(a, b verify.Reason) int {
		return cmp.Or(cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.ASN, b.ASN), strings.Compare(a.Name, b.Name))
	})
	reasons = slices.Compact(reasons)
	if best == verify.Unverified && !r.cfg.Strict {
		if kind, ok := r.safelisted(h); ok {
			best, reasons = verify.Safelisted, append(reasons, verify.Reason{Kind: kind})
		}
	}
	c.Status = best
	if len(reasons) > 0 {
		c.Reasons = reasons
	}
	for _, reason := range reasons {
		c.Kinds |= 1 << reason.Kind
	}
	return c
}

// safelisted is Section 5.1.2, in order: Only Provider Policies for
// imports from customers and peers, Tier-1 pairs, and uphill
// propagation except the origin's own export.
func (r *reference) safelisted(h *hop) (verify.ReasonKind, bool) {
	if h.dir == ir.DirImport && r.onlyProviderPolicies(h.self) {
		if rel := r.rels.Rel(h.peer, h.self); rel == asrel.Customer || rel == asrel.Peer {
			return verify.SpecOnlyProviderPolicies, true
		}
	}
	if r.rels.IsTier1(h.self) && r.rels.IsTier1(h.peer) {
		return verify.SpecTier1Pair, true
	}
	exporter, importer := h.peer, h.self
	if h.dir == ir.DirExport {
		if h.self == h.origin {
			return 0, false
		}
		exporter, importer = h.self, h.peer
	}
	if r.rels.Rel(exporter, importer) == asrel.Customer {
		return verify.SpecUphill, true
	}
	return 0, false
}

// onlyProviderPolicies: asn has rules, and every peering of every rule
// is a single AS number that is one of asn's providers.
func (r *reference) onlyProviderPolicies(asn ir.ASN) bool {
	an, ok := r.db.AutNum(asn)
	if !ok {
		return false
	}
	providers, peerings := r.rels.Providers(asn), 0
	for rule := range an.Rules() {
		for f := range rule.Expr.AllFactors() {
			for _, pa := range f.Peerings {
				e := pa.Peering.ASExpr
				if e == nil || e.Kind != ir.ASExprNum || !slices.Contains(providers, e.ASN) {
					return false
				}
				peerings++
			}
		}
	}
	return peerings > 0
}

// policy evaluates a structured policy. A node's AFI narrows its
// parent's; a node whose AFI excludes the prefix does not apply.
func (r *reference) policy(e *ir.PolicyExpr, afi ir.AFI, h *hop) (verify.Status, []verify.Reason) {
	if !e.AFI.IsZero() {
		afi = e.AFI
	}
	if !afi.MatchesPrefix(h.pfx) {
		return verify.Unverified, nil
	}
	switch e.Kind {
	case ir.PolicyTerm:
		best, reasons := verify.Unverified, []verify.Reason(nil)
		for i := range e.Factors {
			st, rs := r.factor(&e.Factors[i], h)
			if st == verify.Verified {
				return verify.Verified, nil
			}
			best, reasons = min(best, st), append(reasons, rs...)
		}
		return best, reasons
	case ir.PolicyExcept:
		// Either branch accepts; the exception changes only actions.
		ls, lr := r.policy(e.Left, afi, h)
		if ls == verify.Verified {
			return verify.Verified, nil
		}
		rs, rr := r.policy(e.Right, afi, h)
		if rs < ls {
			return rs, rr
		}
		return ls, append(lr, rr...)
	case ir.PolicyRefine:
		// Both sides must accept: the worse one governs.
		ls, lr := r.policy(e.Left, afi, h)
		rs, rr := r.policy(e.Right, afi, h)
		if st := max(ls, rs); st != verify.Verified {
			return st, append(lr, rr...)
		}
		return verify.Verified, nil
	}
	return verify.Unverified, nil
}

// factor evaluates one policy factor: the peerings, the rules the
// paper does not interpret, the filter, then the relaxed filters.
func (r *reference) factor(f *ir.PolicyFactor, h *hop) (verify.Status, []verify.Reason) {
	var reasons []verify.Reason
	state := noMatch
	for i := 0; i < len(f.Peerings) && state != match; i++ {
		if st := r.peering(&f.Peerings[i].Peering, h, 0, &reasons); st != noMatch {
			state = st
		}
	}
	switch state {
	case unrecorded:
		return verify.Unrecorded, reasons
	case noMatch:
		return verify.Unverified, reasons
	}

	switch {
	case f.Filter == nil:
		return verify.Skip, []verify.Reason{{Kind: verify.SkipUnsupported}}
	case !r.cfg.InterpretCommunities && f.Filter.ContainsKind(ir.FilterCommunity):
		return verify.Skip, []verify.Reason{{Kind: verify.SkipCommunityFilter}}
	case f.Filter.ContainsKind(ir.FilterUnsupported):
		return verify.Skip, []verify.Reason{{Kind: verify.SkipUnsupported}}
	case r.cfg.SkipComplexRegex && complexRegex(f.Filter):
		return verify.Skip, []verify.Reason{{Kind: verify.SkipUnsupported}}
	}

	st, reasons := r.filter(f.Filter, h, 0)
	switch st {
	case match:
		return verify.Verified, nil
	case unrecorded:
		return verify.Unrecorded, reasons
	}
	if !r.cfg.Strict {
		if kind, ok := r.relaxed(f, h); ok {
			return verify.Relaxed, []verify.Reason{{Kind: kind}}
		}
	}
	if len(reasons) == 0 {
		reasons = mismatch()
	}
	return verify.Unverified, reasons
}

// complexRegex: the filter holds a path regex with an ASN range or a
// same-pattern repeat, the paper's future-work rules.
func complexRegex(f *ir.Filter) bool {
	found := false
	f.Walk(func(n *ir.Filter) {
		if n.Kind != ir.FilterPathRegex {
			return
		}
		n.Regex.WalkTerms(func(t *ir.PathTerm) { found = found || t.Kind == ir.PathASRange })
		n.Regex.WalkNodes(func(nd *ir.PathNode) { found = found || nd.Kind == ir.PathRepeat && nd.Same })
	})
	return found
}

// peering matches the remote AS against one peering, dereferencing
// peering-sets. Mismatch reasons go to acc whatever the outcome; the
// factor drops them on a match.
func (r *reference) peering(p *ir.Peering, h *hop, depth int, acc *[]verify.Reason) tri {
	if p.PeeringSet == "" {
		if p.ASExpr == nil {
			return noMatch
		}
		return r.asExpr(p.ASExpr, h, acc)
	}
	if depth >= maxSetDepth {
		return noMatch
	}
	ps, ok := r.db.PeeringSet(p.PeeringSet)
	if !ok {
		*acc = append(*acc, verify.Reason{Kind: verify.UnrecordedPeeringSet, Name: p.PeeringSet})
		return unrecorded
	}
	state := noMatch
	for i := range ps.Peerings {
		switch r.peering(&ps.Peerings[i], h, depth+1, acc) {
		case match:
			return match
		case unrecorded:
			state = unrecorded
		}
	}
	return state
}

// asExpr matches the remote AS against an as-expression. Both operands
// of AND and EXCEPT are always evaluated, and each leaf that does not
// hold leaves its reason in acc.
func (r *reference) asExpr(e *ir.ASExpr, h *hop, acc *[]verify.Reason) tri {
	switch e.Kind {
	case ir.ASExprAny:
		return match
	case ir.ASExprNum:
		if e.ASN == h.peer {
			return match
		}
		*acc = append(*acc, verify.Reason{Kind: verify.MatchRemoteAsNum, ASN: e.ASN})
		return noMatch
	case ir.ASExprSet:
		contains, recorded := r.db.AsSetContains(e.Name, h.peer)
		switch {
		case !recorded:
			*acc = append(*acc, verify.Reason{Kind: verify.UnrecordedAsSet, Name: e.Name})
			return unrecorded
		case contains:
			return match
		}
		*acc = append(*acc, verify.Reason{Kind: verify.MatchRemoteAsSet, Name: e.Name})
		return noMatch
	case ir.ASExprAnd:
		l, rt := r.asExpr(e.Left, h, acc), r.asExpr(e.Right, h, acc)
		switch {
		case l == match && rt == match:
			return match
		case l == noMatch || rt == noMatch:
			return noMatch
		}
		return unrecorded
	case ir.ASExprOr:
		l := r.asExpr(e.Left, h, acc)
		if l == match {
			return match
		}
		rt := r.asExpr(e.Right, h, acc)
		if rt == match {
			return match
		}
		if l == unrecorded || rt == unrecorded {
			return unrecorded
		}
		return noMatch
	case ir.ASExprExcept:
		l, rt := r.asExpr(e.Left, h, acc), r.asExpr(e.Right, h, acc)
		switch {
		case l == match && rt == noMatch:
			return match
		case l == noMatch || rt == match:
			return noMatch
		}
		return unrecorded
	}
	return noMatch
}

// filter evaluates a filter strictly, returning with a mismatch or an
// unrecorded outcome the reasons for it.
func (r *reference) filter(f *ir.Filter, h *hop, depth int) (tri, []verify.Reason) {
	switch f.Kind {
	case ir.FilterAny:
		return match, nil
	case ir.FilterNone:
		return noMatch, nil
	case ir.FilterPeerAS:
		return r.originFilter(h.peer, f.Op, h)
	case ir.FilterASN:
		return r.originFilter(f.ASN, f.Op, h)
	case ir.FilterAsSet:
		tbl, ok := r.db.AsSetPrefixTable(f.Name)
		if !ok {
			return unrecorded, []verify.Reason{{Kind: verify.UnrecordedAsSet, Name: f.Name}}
		}
		return r.table(tbl, f, h)
	case ir.FilterRouteSet:
		rs, ok := r.db.RouteSet(f.Name)
		if !ok {
			return unrecorded, []verify.Reason{{Kind: verify.UnrecordedRouteSet, Name: f.Name}}
		}
		return r.table(rs.Table, f, h)
	case ir.FilterFilterSet:
		if depth >= maxSetDepth {
			return noMatch, []verify.Reason{{Kind: verify.MatchFilter, Name: f.Name}}
		}
		fs, ok := r.db.FilterSet(f.Name)
		if !ok {
			return unrecorded, []verify.Reason{{Kind: verify.UnrecordedFilterSet, Name: f.Name}}
		}
		return r.filter(fs.Filter, h, depth+1)
	case ir.FilterPrefixSet:
		for _, rg := range f.Prefixes {
			if rg.Match(h.pfx) {
				return match, nil
			}
		}
		return noMatch, mismatch()
	case ir.FilterPathRegex:
		// A regex naming an unrecorded as-set is undecidable.
		var unrec []verify.Reason
		f.Regex.WalkTerms(func(t *ir.PathTerm) {
			if t.Kind != ir.PathSet {
				return
			}
			if _, ok := r.db.AsSet(t.Name); !ok {
				unrec = append(unrec, verify.Reason{Kind: verify.UnrecordedAsSet, Name: t.Name})
			}
		})
		if len(unrec) > 0 {
			return unrecorded, unrec
		}
		if re := r.regex(f.Regex); re != nil && re.Match(h.path, h.peer, r.db) {
			return match, nil
		}
		return noMatch, mismatch()
	case ir.FilterAnd:
		l, lr := r.filter(f.Left, h, depth)
		rt, rr := r.filter(f.Right, h, depth)
		switch {
		case l == match && rt == match:
			return match, nil
		case l == noMatch || rt == noMatch:
			return noMatch, append(lr, rr...)
		}
		return unrecorded, append(lr, rr...)
	case ir.FilterOr:
		l, lr := r.filter(f.Left, h, depth)
		if l == match {
			return match, nil
		}
		rt, rr := r.filter(f.Right, h, depth)
		switch {
		case rt == match:
			return match, nil
		case l == unrecorded || rt == unrecorded:
			return unrecorded, append(lr, rr...)
		}
		return noMatch, append(lr, rr...)
	case ir.FilterNot:
		switch st, rs := r.filter(f.Left, h, depth); st {
		case match:
			return noMatch, mismatch()
		case noMatch:
			return match, nil
		default:
			return st, rs
		}
	case ir.FilterCommunity:
		// Reached with interpretation off only through a filter-set:
		// the factor's skip test reads the literal tree.
		if r.cfg.InterpretCommunities && carriesAll(f.Call, h.communities) {
			return match, nil
		}
		return noMatch, mismatch()
	}
	// An unsupported filter nested in a set body matches nothing.
	return noMatch, mismatch()
}

// mismatch is a filter's generic mismatch reason.
func mismatch() []verify.Reason { return []verify.Reason{{Kind: verify.MatchFilter}} }

// table matches the prefix against a set's flattened prefix table.
func (r *reference) table(tbl *prefix.Table, f *ir.Filter, h *hop) (tri, []verify.Reason) {
	if tbl.ContainsWithOp(h.pfx, f.Op) {
		return match, nil
	}
	return noMatch, []verify.Reason{{Kind: verify.MatchFilter, Name: f.Name}}
}

// originFilter is an AS number used as a filter: the prefixes of the
// route objects it originates. An AS with none is unrecorded.
func (r *reference) originFilter(asn ir.ASN, op prefix.RangeOp, h *hop) (tri, []verify.Reason) {
	tbl, ok := r.db.RouteTable(asn)
	if !ok {
		return unrecorded, []verify.Reason{{Kind: verify.UnrecordedZeroRouteAS, ASN: asn}}
	}
	if tbl.ContainsWithOp(h.pfx, op) {
		return match, nil
	}
	return noMatch, []verify.Reason{{Kind: verify.MatchFilterAsNum, ASN: asn}}
}

// carriesAll evaluates community(...), community.contains(...) and
// community.==(...): the route must carry every listed community. An
// unknown method, an empty list or a bad community matches nothing.
func carriesAll(call string, have []bgpsim.Community) bool {
	method, args, ok := strings.Cut(call, "(")
	end := strings.LastIndexByte(args, ')')
	if !ok || end < 0 || !slices.Contains([]string{"", ".contains", ".=="}, method) {
		return false
	}
	fields := strings.FieldsFunc(args[:end], func(c rune) bool { return c == ',' || c == ' ' })
	for _, s := range fields {
		c, err := bgpsim.ParseCommunity(s)
		if err != nil || !slices.Contains(have, c) {
			return false
		}
	}
	return len(fields) > 0
}

// relaxed is Section 5.1.1, in order, for a factor whose peering
// matched and whose filter did not.
func (r *reference) relaxed(f *ir.PolicyFactor, h *hop) (verify.ReasonKind, bool) {
	asnFilter := func(asn ir.ASN) bool {
		return f.Filter.Kind == ir.FilterASN && f.Filter.ASN == asn
	}
	// Export Self: the exporter names itself and got the route from a
	// customer; the prefix is registered to the exporter's cone.
	if h.dir == ir.DirExport && asnFilter(h.self) && h.prev != 0 &&
		r.rels.Rel(h.prev, h.self) == asrel.Customer && r.registeredToCone(h) {
		return verify.SpecExportSelf, true
	}
	// Import Customer: the importer names its customer as peering and
	// as filter.
	if h.dir == ir.DirImport && asnFilter(h.peer) && len(f.Peerings) > 0 &&
		!slices.ContainsFunc(f.Peerings, func(pa ir.PeeringAction) bool {
			e := pa.Peering.ASExpr
			return e == nil || e.Kind != ir.ASExprNum || e.ASN != h.peer
		}) && r.rels.Rel(h.self, h.peer) == asrel.Provider {
		return verify.SpecImportCustomer, true
	}
	// Missing Routes: the filter names the path's origin.
	if r.namesOrigin(f.Filter, h) {
		return verify.SpecMissingRoutes, true
	}
	return 0, false
}

// registeredToCone: some route object for the prefix is originated by
// self or an AS in self's customer cone.
func (r *reference) registeredToCone(h *hop) bool {
	cone, ok := r.cones[h.self]
	if !ok {
		cone = r.rels.CustomerCone(h.self)
		r.cones[h.self] = cone
	}
	return slices.ContainsFunc(r.db.OriginsOf(h.pfx), func(o ir.ASN) bool { return o == h.self || cone[o] })
}

// namesOrigin: the filter is the origin's AS number, PeerAS standing
// for the origin, or an as-set or route-set with the origin as member.
func (r *reference) namesOrigin(f *ir.Filter, h *hop) bool {
	switch f.Kind {
	case ir.FilterASN:
		return f.ASN == h.origin
	case ir.FilterPeerAS:
		return h.peer == h.origin
	case ir.FilterAsSet:
		contains, recorded := r.db.AsSetContains(f.Name, h.origin)
		return recorded && contains
	case ir.FilterRouteSet:
		if rs, ok := r.db.RouteSet(f.Name); ok {
			_, in := rs.Origins[h.origin]
			return in
		}
	}
	return false
}

// regex compiles a path regex once; nil when it does not compile.
func (r *reference) regex(p *ir.PathRegex) *asregex.Regex {
	re, ok := r.regexes[p]
	if !ok {
		re, _ = asregex.Compile(p)
		r.regexes[p] = re
	}
	return re
}
