package report

import "rpslyzer/internal/verify"

// Figure2Summary reproduces the headline numbers of the paper's
// Figure 2: per-AS verification status consistency.
type Figure2Summary struct {
	ASes int
	// SingleStatus counts ASes whose checks all share one status,
	// indexed by that status (the single-colour bars of Figure 2).
	SingleStatus StatusCounts
	// SingleStatusTotal is the sum of SingleStatus.
	SingleStatusTotal int64
	// WithStatus counts ASes with at least one check of each status.
	WithStatus StatusCounts
}

// Figure2 computes the per-AS consistency summary.
func (a *Aggregator) Figure2() Figure2Summary {
	var out Figure2Summary
	for _, s := range a.perAS {
		out.ASes++
		all := s.All()
		distinct := -1
		for st, n := range all {
			if n > 0 {
				out.WithStatus[st]++
				if distinct == -1 {
					distinct = st
				} else if distinct != st {
					distinct = -2
				}
			}
		}
		if distinct >= 0 {
			out.SingleStatus[distinct]++
			out.SingleStatusTotal++
		}
	}
	return out
}

// Figure3Summary reproduces Figure 3: per-AS-pair status consistency
// and the undeclared-peering share of unverified pairs.
type Figure3Summary struct {
	Pairs int
	// ImportSingleStatus / ExportSingleStatus count pairs whose
	// import (export) checks all share one status.
	ImportSingleStatus int64
	ExportSingleStatus int64
	// PairsWithUnverified counts pairs with >= 1 unverified check.
	PairsWithUnverified int64
	// UnverifiedPeeringOnly counts, among pairs with unverified
	// checks, those where every unverified check failed because no
	// rule's peering covered the neighbor (the paper's 98.98%).
	UnverifiedPeeringOnly int64
	// WithStatus counts pairs having at least one check of each status.
	WithStatus StatusCounts
}

// Figure3 computes the per-pair summary.
func (a *Aggregator) Figure3() Figure3Summary {
	var out Figure3Summary
	for _, s := range a.perPair {
		out.Pairs++
		if single(&s.Imports) {
			out.ImportSingleStatus++
		}
		if single(&s.Exports) {
			out.ExportSingleStatus++
		}
		var all StatusCounts
		all.Merge(&s.Imports)
		all.Merge(&s.Exports)
		for st, n := range all {
			if n > 0 {
				out.WithStatus[st]++
			}
		}
		if all[verify.Unverified] > 0 {
			out.PairsWithUnverified++
			if s.UnverifiedFilter == 0 {
				out.UnverifiedPeeringOnly++
			}
		}
	}
	return out
}

// single reports whether the non-empty counts concentrate on one
// status (empty counts as false).
func single(s *StatusCounts) bool {
	distinct := 0
	for _, n := range s {
		if n > 0 {
			distinct++
		}
	}
	return distinct == 1
}

// Figure4Summary reproduces Figure 4: the mix of statuses within each
// route.
type Figure4Summary struct {
	Routes int64
	// SingleStatus counts routes whose hops all share one status,
	// indexed by status.
	SingleStatus StatusCounts
	// SingleStatusTotal, TwoStatuses, ThreePlus partition the routes.
	SingleStatusTotal, TwoStatuses, ThreePlus int64
}

// Figure4 returns the per-route mix summary.
func (a *Aggregator) Figure4() Figure4Summary {
	out := a.routeMix
	out.Routes = a.Routes
	return out
}

// Figure5Summary reproduces Figure 5: unrecorded causes per AS.
type Figure5Summary struct {
	// ASesWithUnrecorded counts ASes with >= 1 unrecorded check.
	ASesWithUnrecorded int64
	// ByCause counts ASes exhibiting each unrecorded cause.
	ByCause [NumCauses]int64
}

// Figure5 computes the unrecorded breakdown.
func (a *Aggregator) Figure5() Figure5Summary {
	var out Figure5Summary
	for _, s := range a.perAS {
		all := s.All()
		if all[verify.Unrecorded] == 0 {
			continue
		}
		out.ASesWithUnrecorded++
		for c := CauseNoAutNum; c <= CauseMissingSet; c++ {
			if s.UnrecCauses.Has(c) {
				out.ByCause[c]++
			}
		}
	}
	return out
}

// Figure6Summary reproduces Figure 6: special cases per AS.
type Figure6Summary struct {
	ASes int64
	// ASesWithSpecial counts ASes with >= 1 relaxed or safelisted
	// check (the paper's 30.9%).
	ASesWithSpecial int64
	// ByCause counts ASes exhibiting each special cause.
	ByCause [NumCauses]int64
	// ASesWithUnverified counts ASes with >= 1 unverified check (the
	// paper's 12.4% comparator).
	ASesWithUnverified int64
}

// Figure6 computes the special-case breakdown.
func (a *Aggregator) Figure6() Figure6Summary {
	var out Figure6Summary
	for _, s := range a.perAS {
		out.ASes++
		all := s.All()
		if all[verify.Relaxed] > 0 || all[verify.Safelisted] > 0 {
			out.ASesWithSpecial++
			for c := CauseExportSelf; c < NumCauses; c++ {
				if s.SpecialCauses.Has(c) {
					out.ByCause[c]++
				}
			}
		}
		if all[verify.Unverified] > 0 {
			out.ASesWithUnverified++
		}
	}
	return out
}
