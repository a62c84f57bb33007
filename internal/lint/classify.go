package lint

import (
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
)

// UsageClass buckets an AS by how it uses the RPSL — the
// classification the paper's conclusion proposes as future work.
type UsageClass uint8

const (
	// UsageNoAutNum: the AS has no aut-num object.
	UsageNoAutNum UsageClass = iota
	// UsageNoRules: an aut-num exists but declares no policy.
	UsageNoRules
	// UsageSimple: only single-ASN/ANY peerings with ANY, self, or
	// plain set filters — the BGPq4-compatible majority.
	UsageSimple
	// UsageSetBased: simple rules that organize filters through
	// as-sets or route-sets.
	UsageSetBased
	// UsageCompound: uses structured policies, composite filters,
	// AS-path regexes, or communities.
	UsageCompound
	// NumUsageClasses is the class count.
	NumUsageClasses
)

var usageNames = [...]string{"no-aut-num", "no-rules", "simple", "set-based", "compound"}

// String renders the class.
func (u UsageClass) String() string {
	if int(u) < len(usageNames) {
		return usageNames[u]
	}
	return "invalid"
}

// ClassifyAS buckets one AS.
func ClassifyAS(db *irr.Database, asn ir.ASN) UsageClass {
	an, ok := db.AutNum(asn)
	if !ok {
		return UsageNoAutNum
	}
	if an.RuleCount() == 0 {
		return UsageNoRules
	}
	// Only except/refine nodes have children, so a rule is structured
	// exactly when its root is not a term.
	compound := false
	setBased := false
	for r := range an.Rules() {
		if r.Expr != nil && r.Expr.Kind != ir.PolicyTerm {
			compound = true
		}
		for f := range r.Expr.AllFactors() {
			f.Filter.Walk(func(n *ir.Filter) {
				switch n.Kind {
				case ir.FilterAnd, ir.FilterOr, ir.FilterNot,
					ir.FilterPathRegex, ir.FilterCommunity, ir.FilterFilterSet:
					compound = true
				case ir.FilterAsSet, ir.FilterRouteSet:
					setBased = true
				}
			})
		}
	}
	switch {
	case compound:
		return UsageCompound
	case setBased:
		return UsageSetBased
	default:
		return UsageSimple
	}
}

// ClassifyAll buckets every AS in the given universe of ASNs (pass the
// topology order, or db.IR.SortedAutNums() to restrict to registered
// ASes) and returns per-class counts.
func ClassifyAll(db *irr.Database, asns []ir.ASN) [NumUsageClasses]int {
	var out [NumUsageClasses]int
	for _, asn := range asns {
		out[ClassifyAS(db, asn)]++
	}
	return out
}
