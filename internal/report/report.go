// Package report aggregates verification checks at the three
// granularities the paper reports: per AS (Figure 2), per AS pair
// (Figure 3), and per route (Figure 4), plus the unrecorded-cause
// breakdown (Figure 5) and the special-case breakdown (Figure 6).
package report

import (
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

// RouteMix summarizes the statuses along one route (Figure 4).
type RouteMix [NumStatuses]uint16

// DistinctStatuses counts how many statuses appear.
func (m RouteMix) DistinctStatuses() int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

// Aggregator accumulates verification reports. Not safe for concurrent
// Add; use it as the (serialized) sink of verify.VerifyStream.
type Aggregator struct {
	perAS   map[ir.ASN]*ASStats
	perPair map[PairKey]*PairStats
	// routeMixes holds one entry per verified (non-ignored) route.
	routeMixes []RouteMix
	// KeepRouteMixes can be disabled to bound memory on huge runs.
	KeepRouteMixes bool

	// IgnoredASSet / IgnoredSingleAS count excluded routes.
	IgnoredASSet, IgnoredSingleAS int64
	// Routes counts verified routes.
	Routes int64
	// Checks counts all checks.
	Checks StatusCounts
	// FirstHop counts the statuses of the origin-side export/import
	// pair only (the Section 5.2 first-hop analysis).
	FirstHop StatusCounts
}

// NewAggregator creates an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		perAS:          make(map[ir.ASN]*ASStats),
		perPair:        make(map[PairKey]*PairStats),
		KeepRouteMixes: true,
	}
}

// Add ingests one route report.
func (a *Aggregator) Add(rep verify.RouteReport) {
	switch rep.Ignored {
	case "as-set":
		a.IgnoredASSet++
		return
	case "single-as":
		a.IgnoredSingleAS++
		return
	}
	a.Routes++
	var mix RouteMix
	var s *ASStats   // of the previous check's owner
	var p *PairStats // of the previous check's pair
	var pair PairKey
	for i := range rep.Checks {
		c := &rep.Checks[i]
		a.Checks.Add(c.Status)
		if mix[c.Status] < ^uint16(0) {
			mix[c.Status]++
		}
		// The checks slice is ordered from the origin side; the first
		// two checks are the first hop.
		if i < 2 {
			a.FirstHop.Add(c.Status)
		}

		// Attribute the check to the AS whose rule was checked. A path's
		// importer is the next pair's exporter and a pair's two checks
		// follow each other, so each map is asked only on a change.
		owner := c.To
		if c.Dir == ir.DirExport {
			owner = c.From
		}
		if s == nil || s.ASN != owner {
			if s = a.perAS[owner]; s == nil {
				s = &ASStats{ASN: owner}
				a.perAS[owner] = s
			}
		}
		if c.Dir == ir.DirExport {
			s.Exports.Add(c.Status)
		} else {
			s.Imports.Add(c.Status)
		}
		switch c.Status {
		case verify.Unrecorded:
			for j := range c.Reasons {
				if cause, ok := CauseOfReason(c.Reasons[j].Kind); ok && cause <= CauseMissingSet {
					s.UnrecCauses = s.UnrecCauses.With(cause)
				}
			}
		case verify.Relaxed, verify.Safelisted:
			for j := range c.Reasons {
				if cause, ok := CauseOfReason(c.Reasons[j].Kind); ok && cause >= CauseExportSelf {
					s.SpecialCauses = s.SpecialCauses.With(cause)
				}
			}
		}

		if key := (PairKey{c.From, c.To}); p == nil || key != pair {
			if pair, p = key, a.perPair[key]; p == nil {
				p = &PairStats{}
				a.perPair[key] = p
			}
		}
		if c.Dir == ir.DirExport {
			p.Exports.Add(c.Status)
		} else {
			p.Imports.Add(c.Status)
		}
		if c.Status == verify.Unverified {
			if checkFilterMismatched(c) {
				p.UnverifiedFilter++
			} else {
				p.UnverifiedPeering++
			}
		}
	}
	if a.KeepRouteMixes {
		a.routeMixes = append(a.routeMixes, mix)
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

// RouteMixes returns the per-route status mixes (Figure 4 input).
func (a *Aggregator) RouteMixes() []RouteMix { return a.routeMixes }

// checkFilterMismatched reports whether an unverified check had at
// least one rule whose peering matched (so the filter was the cause).
func checkFilterMismatched(c *verify.Check) bool {
	for i := range c.Reasons {
		switch c.Reasons[i].Kind {
		case verify.MatchFilter, verify.MatchFilterAsNum:
			return true
		}
	}
	return false
}
