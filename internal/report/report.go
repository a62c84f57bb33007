// Package report aggregates verification checks at the three
// granularities the paper reports: per AS (Figure 2), per AS pair
// (Figure 3), and per route (Figure 4), plus the unrecorded-cause
// breakdown (Figure 5) and the special-case breakdown (Figure 6).
package report

import (
	"math/bits"
	"sort"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/verify"
)

// NumStatuses is the number of verification statuses.
const NumStatuses = int(verify.Unverified) + 1

// StatusCounts counts checks by status.
type StatusCounts [NumStatuses]int64

// Total sums all statuses.
func (s *StatusCounts) Total() int64 {
	var t int64
	for _, v := range s {
		t += v
	}
	return t
}

// Add bumps one status.
func (s *StatusCounts) Add(st verify.Status) { s[st]++ }

// Merge adds other into s.
func (s *StatusCounts) Merge(o *StatusCounts) {
	for i := range s {
		s[i] += o[i]
	}
}

// Fractions returns per-status fractions (zero when empty).
func (s *StatusCounts) Fractions() [NumStatuses]float64 {
	var out [NumStatuses]float64
	t := s.Total()
	if t == 0 {
		return out
	}
	for i, v := range s {
		out[i] = float64(v) / float64(t)
	}
	return out
}

// A route's statuses and an AS's reason kinds are bit sets.
var (
	_ [8 - NumStatuses]struct{}
	_ [32 - verify.NumReasons]struct{}
)

// ASStats aggregates the checks of one AS's own rules.
type ASStats struct {
	ASN     ir.ASN
	Imports StatusCounts
	Exports StatusCounts
	// UnrecCauses flags which unrecorded causes were seen (Figure 5).
	UnrecCauses CauseSet
	// SpecialCauses flags which relaxed/safelisted reasons were seen
	// (Figure 6).
	SpecialCauses CauseSet
	// Reasons has one bit per reason kind among the checks.
	Reasons uint32
}

// Merge adds the checks o counted into a, as if a had been given them.
func (a *ASStats) Merge(o *ASStats) {
	a.Imports.Merge(&o.Imports)
	a.Exports.Merge(&o.Exports)
	a.UnrecCauses |= o.UnrecCauses
	a.SpecialCauses |= o.SpecialCauses
	a.Reasons |= o.Reasons
}

// All returns imports+exports combined.
func (a *ASStats) All() StatusCounts {
	var s StatusCounts
	s.Merge(&a.Imports)
	s.Merge(&a.Exports)
	return s
}

// CauseSet is a bit set over Cause.
type CauseSet uint16

// Cause enumerates the Figure 5 / Figure 6 breakdown categories.
type Cause uint8

const (
	// CauseNoAutNum: AS has no aut-num object.
	CauseNoAutNum Cause = iota
	// CauseNoRules: aut-num has zero rules in the checked direction.
	CauseNoRules
	// CauseZeroRouteAS: a filter referenced an AS with no route objects.
	CauseZeroRouteAS
	// CauseMissingSet: a referenced set object is unrecorded.
	CauseMissingSet
	// CauseExportSelf, CauseImportCustomer, CauseMissingRoutes: the
	// relaxed filters of Section 5.1.1.
	CauseExportSelf
	CauseImportCustomer
	CauseMissingRoutes
	// CauseOnlyProviderPolicies, CauseTier1Pair, CauseUphill: the
	// safelists of Section 5.1.2.
	CauseOnlyProviderPolicies
	CauseTier1Pair
	CauseUphill
	// NumCauses is the number of causes.
	NumCauses
)

var causeNames = [...]string{
	"no-aut-num", "no-rules", "zero-route-as", "missing-set",
	"export-self", "import-customer", "missing-routes",
	"only-provider-policies", "tier1-pair", "uphill",
}

// String renders the cause.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return "invalid"
}

// Has reports membership.
func (s CauseSet) Has(c Cause) bool { return s&(1<<c) != 0 }

// With returns the set with c added.
func (s CauseSet) With(c Cause) CauseSet { return s | 1<<c }

// ParseCause resolves a cause name (as printed by String).
func ParseCause(name string) (Cause, bool) {
	for i, n := range causeNames {
		if n == name {
			return Cause(i), true
		}
	}
	return 0, false
}

// CauseOfReason maps a check reason to a breakdown cause (ok=false for
// reasons that are not breakdown categories). It is the classification
// Figures 5 and 6 use, shared with the report store's reverse indexes.
func CauseOfReason(k verify.ReasonKind) (Cause, bool) {
	switch k {
	case verify.UnrecordedAutNum:
		return CauseNoAutNum, true
	case verify.UnrecordedNoRules:
		return CauseNoRules, true
	case verify.UnrecordedZeroRouteAS:
		return CauseZeroRouteAS, true
	case verify.UnrecordedAsSet, verify.UnrecordedRouteSet,
		verify.UnrecordedFilterSet, verify.UnrecordedPeeringSet:
		return CauseMissingSet, true
	case verify.SpecExportSelf:
		return CauseExportSelf, true
	case verify.SpecImportCustomer:
		return CauseImportCustomer, true
	case verify.SpecMissingRoutes:
		return CauseMissingRoutes, true
	case verify.SpecOnlyProviderPolicies:
		return CauseOnlyProviderPolicies, true
	case verify.SpecTier1Pair:
		return CauseTier1Pair, true
	case verify.SpecUphill:
		return CauseUphill, true
	}
	return 0, false
}

// PairKey identifies a directed AS pair: From exported to To.
type PairKey struct {
	From, To ir.ASN
}

// PairStats aggregates checks for one directed AS pair.
type PairStats struct {
	Imports StatusCounts
	Exports StatusCounts
	// UnverifiedPeering counts unverified checks where no rule's
	// peering covered the neighbor; UnverifiedFilter counts unverified
	// checks where some peering matched but the filter did not. The
	// paper reports 98.98% of unverified pairs in the former class.
	UnverifiedPeering int64
	UnverifiedFilter  int64
}

// Merge adds the checks o counted into s, as if s had been given them.
func (s *PairStats) Merge(o *PairStats) {
	s.Imports.Merge(&o.Imports)
	s.Exports.Merge(&o.Exports)
	s.UnverifiedPeering += o.UnverifiedPeering
	s.UnverifiedFilter += o.UnverifiedFilter
}

// Aggregator accumulates verification reports into the counts behind
// Figures 2-6, Section 5's totals and the report store's summary, in
// memory proportional to the ASes and AS pairs seen, not to the routes.
// Not safe for concurrent Add; use it as the (serialized) sink of
// verify.VerifyStream.
//
// Aggregators over disjoint sets of reports are partials of the one
// over all of them: give each its share, then Merge them into one, in
// any order. Every count is a sum or a union, so the merged partial is
// the one a single Add pass over every report would have built.
type Aggregator struct {
	perAS   map[ir.ASN]*ASStats
	perPair map[PairKey]*PairStats
	// asMemo and pairMemo remember, direct-mapped, the stats Add found
	// last: along a path the AS that imported a route is the next one
	// to export it, most checks belong to the few ASes most paths
	// cross, and the pairs near the origins of popular prefixes recur
	// path after path.
	asMemo   [1024]*ASStats
	pairMemo [4096]struct {
		k PairKey
		p *PairStats
	}
	// routeMix is Figure 4, counted route by route as Add goes.
	routeMix Figure4Summary

	// IgnoredASSet / IgnoredSingleAS count excluded routes.
	IgnoredASSet, IgnoredSingleAS int64
	// Routes counts verified routes.
	Routes int64
	// Checks counts all checks.
	Checks StatusCounts
	// FirstHop counts the statuses of the origin-side export/import
	// pair only (the Section 5.2 first-hop analysis).
	FirstHop StatusCounts
	// ReasonChecks counts the checks by reason kind, a check once per
	// kind it carries, however many reasons of that kind it has.
	ReasonChecks [verify.NumReasons]int64
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		perAS:   make(map[ir.ASN]*ASStats),
		perPair: make(map[PairKey]*PairStats),
	}
}

// Add ingests one route report. An ignored report is counted as such
// and nothing else, whatever checks it carries.
func (a *Aggregator) Add(rep verify.RouteReport) { a.AddRun(&rep, 1) }

// AddRun ingests n reports equal to rep, as n calls of Add would, in
// one pass over its checks: every count is a sum, every set a union.
// A freeze hands it each run of reports that share one check slice.
func (a *Aggregator) AddRun(rep *verify.RouteReport, n int) {
	k := int64(n)
	if rep.Ignored != "" {
		switch rep.Ignored {
		case "as-set":
			a.IgnoredASSet += k
		case "single-as":
			a.IgnoredSingleAS += k
		}
		return
	}
	a.Routes += k
	var mix uint8    // one bit per status among the route's checks
	var s *ASStats   // of the previous check's owner
	var p *PairStats // of the previous check's pair
	var pair PairKey
	for i := range rep.Checks {
		c := &rep.Checks[i]
		a.Checks[c.Status] += k
		mix |= 1 << c.Status
		// The checks slice is ordered from the origin side; the first
		// two checks are the first hop.
		if i < 2 {
			a.FirstHop[c.Status] += k
		}

		// Attribute the check to the AS whose rule was checked and to its
		// pair. A path's importer is the next pair's exporter and a
		// pair's two checks follow each other, so each is looked up only
		// on a change.
		if owner := Owner(c.Dir, c.From, c.To); s == nil || s.ASN != owner {
			s = a.as(owner)
		}
		if key := (PairKey{c.From, c.To}); p == nil || key != pair {
			pair, p = key, a.pair(key)
		}
		if c.Dir == ir.DirExport {
			s.Exports[c.Status] += k
			p.Exports[c.Status] += k
		} else {
			s.Imports[c.Status] += k
			p.Imports[c.Status] += k
		}
		// Record the reason kinds, the Figure 5 causes of an unrecorded
		// check, the Figure 6 causes of a relaxed or safelisted one, and
		// whether an unverified one failed a filter (some rule's peering
		// matched) or every peering.
		kinds := c.ReasonKinds()
		var causes CauseSet
		for m := kinds; m != 0; m &= m - 1 {
			kind := bits.TrailingZeros32(m)
			a.ReasonChecks[kind] += k
			causes |= kindCauses[kind]
		}
		s.Reasons |= kinds
		switch c.Status {
		case verify.Unrecorded:
			s.UnrecCauses |= causes & unrecCauses
		case verify.Relaxed, verify.Safelisted:
			s.SpecialCauses |= causes &^ unrecCauses
		case verify.Unverified:
			if kinds&filterKinds != 0 {
				p.UnverifiedFilter += k
			} else {
				p.UnverifiedPeering += k
			}
		}
	}
	switch bits.OnesCount8(mix) {
	case 1:
		a.routeMix.SingleStatus[bits.TrailingZeros8(mix)] += k
		a.routeMix.SingleStatusTotal += k
	case 2:
		a.routeMix.TwoStatuses += k
	default:
		a.routeMix.ThreePlus += k
	}
}

// A check's Figure 5 causes are its causes up to CauseMissingSet, its
// Figure 6 causes the rest; an unverified check failed a filter if it
// carries a filter kind.
const (
	unrecCauses CauseSet = 1<<(CauseMissingSet+1) - 1
	filterKinds uint32   = 1<<verify.MatchFilter | 1<<verify.MatchFilterAsNum
)

// kindCauses is the breakdown cause of each reason kind (CauseOfReason),
// none for a kind that is no breakdown category.
var kindCauses = func() (t [verify.NumReasons]CauseSet) {
	for k := range t {
		if c, ok := CauseOfReason(verify.ReasonKind(k)); ok {
			t[k] = t[k].With(c)
		}
	}
	return t
}()

// Owner returns the AS a check is attributed to, the AS whose rule it
// exercised: From of an export, To of an import.
func Owner(dir ir.Direction, from, to ir.ASN) ir.ASN {
	if dir == ir.DirExport {
		return from
	}
	return to
}

// as returns the stats of asn, which it makes if there are none.
func (a *Aggregator) as(asn ir.ASN) *ASStats {
	m := &a.asMemo[uint32(asn)%uint32(len(a.asMemo))]
	if *m != nil && (*m).ASN == asn {
		return *m
	}
	s := a.perAS[asn]
	if s == nil {
		s = &ASStats{ASN: asn}
		a.perAS[asn] = s
	}
	*m = s
	return s
}

// pair returns the stats of k, which it makes if there are none.
func (a *Aggregator) pair(k PairKey) *PairStats {
	m := &a.pairMemo[((uint32(k.From)*0x9E3779B1^uint32(k.To))*0x85EBCA6B)>>20]
	if m.p != nil && m.k == k {
		return m.p
	}
	p := a.perPair[k]
	if p == nil {
		p = &PairStats{}
		a.perPair[k] = p
	}
	m.k, m.p = k, p
	return p
}

// Merge adds the counts of o into a, as if a had been given o's reports
// too. o is spent: a may keep its per-AS and per-pair stats, so o must
// not be added to or merged again.
func (a *Aggregator) Merge(o *Aggregator) {
	for asn, t := range o.perAS {
		if s := a.perAS[asn]; s != nil {
			s.Merge(t)
		} else {
			a.perAS[asn] = t
		}
	}
	for k, t := range o.perPair {
		if p := a.perPair[k]; p != nil {
			p.Merge(t)
		} else {
			a.perPair[k] = t
		}
	}
	a.routeMix.SingleStatus.Merge(&o.routeMix.SingleStatus)
	a.routeMix.SingleStatusTotal += o.routeMix.SingleStatusTotal
	a.routeMix.TwoStatuses += o.routeMix.TwoStatuses
	a.routeMix.ThreePlus += o.routeMix.ThreePlus
	a.IgnoredASSet += o.IgnoredASSet
	a.IgnoredSingleAS += o.IgnoredSingleAS
	a.Routes += o.Routes
	a.Checks.Merge(&o.Checks)
	a.FirstHop.Merge(&o.FirstHop)
	for k, n := range o.ReasonChecks {
		a.ReasonChecks[k] += n
	}
}

// NumASes returns how many ASes have attributed checks.
func (a *Aggregator) NumASes() int { return len(a.perAS) }

// NumPairs returns how many directed AS pairs were checked.
func (a *Aggregator) NumPairs() int { return len(a.perPair) }

// PerAS returns per-AS stats sorted by ASN.
func (a *Aggregator) PerAS() []*ASStats {
	out := make([]*ASStats, 0, len(a.perAS))
	for _, s := range a.perAS {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ASN < out[j].ASN })
	return out
}
