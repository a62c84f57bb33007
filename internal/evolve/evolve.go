// Package evolve compares IRR snapshots over time — the longitudinal
// tooling the paper's conclusion proposes ("tracking the evolution of
// RPSL policy usage over time"), and that related work approximates by
// periodically scraping the IRRs. It diffs two parsed snapshots
// object-by-object and computes adoption time series over many.
package evolve

import (
	"fmt"
	"sort"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// Diff summarizes the changes between two IR snapshots.
type Diff struct {
	// AddedAutNums and RemovedAutNums list ASes that gained or lost
	// their aut-num object.
	AddedAutNums   []ir.ASN `json:"added_aut_nums,omitempty"`
	RemovedAutNums []ir.ASN `json:"removed_aut_nums,omitempty"`
	// PolicyChanged lists ASes whose rule set changed (compared by the
	// canonical raw text of their rules).
	PolicyChanged []ir.ASN `json:"policy_changed,omitempty"`
	// RulesAdded and RulesRemoved count rule-level churn across all
	// changed aut-nums.
	RulesAdded   int `json:"rules_added"`
	RulesRemoved int `json:"rules_removed"`

	// Added/Removed sets per class.
	AddedAsSets      []string `json:"added_as_sets,omitempty"`
	RemovedAsSets    []string `json:"removed_as_sets,omitempty"`
	ChangedAsSets    []string `json:"changed_as_sets,omitempty"`
	AddedRouteSets   []string `json:"added_route_sets,omitempty"`
	RemovedRouteSets []string `json:"removed_route_sets,omitempty"`
	ChangedRouteSets []string `json:"changed_route_sets,omitempty"`

	// Route-object churn, by (prefix, origin) pair.
	AddedRoutes   int `json:"added_routes"`
	RemovedRoutes int `json:"removed_routes"`
}

// Compare diffs two snapshots (old → new).
func Compare(oldIR, newIR *ir.IR) *Diff {
	d := &Diff{}

	for asn := range newIR.AutNums {
		if _, ok := oldIR.AutNums[asn]; !ok {
			d.AddedAutNums = append(d.AddedAutNums, asn)
		}
	}
	for asn, oldAN := range oldIR.AutNums {
		newAN, ok := newIR.AutNums[asn]
		if !ok {
			d.RemovedAutNums = append(d.RemovedAutNums, asn)
			continue
		}
		oldRules := ruleSet(oldAN)
		newRules := ruleSet(newAN)
		added, removed := setDiff(oldRules, newRules)
		if added+removed > 0 {
			d.PolicyChanged = append(d.PolicyChanged, asn)
			d.RulesAdded += added
			d.RulesRemoved += removed
		}
	}
	sortASNs(d.AddedAutNums)
	sortASNs(d.RemovedAutNums)
	sortASNs(d.PolicyChanged)

	for name := range newIR.AsSets {
		if _, ok := oldIR.AsSets[name]; !ok {
			d.AddedAsSets = append(d.AddedAsSets, name)
		}
	}
	for name, oldSet := range oldIR.AsSets {
		newSet, ok := newIR.AsSets[name]
		if !ok {
			d.RemovedAsSets = append(d.RemovedAsSets, name)
			continue
		}
		if !sameMembers(oldSet, newSet) {
			d.ChangedAsSets = append(d.ChangedAsSets, name)
		}
	}
	sort.Strings(d.AddedAsSets)
	sort.Strings(d.RemovedAsSets)
	sort.Strings(d.ChangedAsSets)

	for name := range newIR.RouteSets {
		if _, ok := oldIR.RouteSets[name]; !ok {
			d.AddedRouteSets = append(d.AddedRouteSets, name)
		}
	}
	for name, oldSet := range oldIR.RouteSets {
		newSet, ok := newIR.RouteSets[name]
		if !ok {
			d.RemovedRouteSets = append(d.RemovedRouteSets, name)
			continue
		}
		if !sameRouteSetMembers(oldSet, newSet) {
			d.ChangedRouteSets = append(d.ChangedRouteSets, name)
		}
	}
	sort.Strings(d.AddedRouteSets)
	sort.Strings(d.RemovedRouteSets)
	sort.Strings(d.ChangedRouteSets)

	oldPairs := routePairs(oldIR)
	newPairs := routePairs(newIR)
	for p := range newPairs {
		if !oldPairs[p] {
			d.AddedRoutes++
		}
	}
	for p := range oldPairs {
		if !newPairs[p] {
			d.RemovedRoutes++
		}
	}
	return d
}

// Empty reports whether the diff records no changes.
func (d *Diff) Empty() bool {
	return len(d.AddedAutNums)+len(d.RemovedAutNums)+len(d.PolicyChanged)+
		len(d.AddedAsSets)+len(d.RemovedAsSets)+len(d.ChangedAsSets)+
		len(d.AddedRouteSets)+len(d.RemovedRouteSets)+len(d.ChangedRouteSets)+
		d.AddedRoutes+d.RemovedRoutes == 0
}

// Summary renders a human-readable digest.
func (d *Diff) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "aut-nums: +%d -%d, %d with policy changes (+%d/-%d rules)\n",
		len(d.AddedAutNums), len(d.RemovedAutNums), len(d.PolicyChanged),
		d.RulesAdded, d.RulesRemoved)
	fmt.Fprintf(&b, "as-sets: +%d -%d ~%d\n",
		len(d.AddedAsSets), len(d.RemovedAsSets), len(d.ChangedAsSets))
	fmt.Fprintf(&b, "route-sets: +%d -%d ~%d\n",
		len(d.AddedRouteSets), len(d.RemovedRouteSets), len(d.ChangedRouteSets))
	fmt.Fprintf(&b, "route objects (prefix,origin): +%d -%d\n", d.AddedRoutes, d.RemovedRoutes)
	return b.String()
}

// ruleSet canonicalizes an aut-num's rules into a multiset keyed by
// direction + raw text.
func ruleSet(an *ir.AutNum) map[string]int {
	out := make(map[string]int, an.RuleCount())
	for r := range an.Rules() {
		out[r.Dir.String()+"\x00"+r.Raw]++
	}
	return out
}

// setDiff returns the number of entries added to and removed from old
// to reach new, multiset-aware.
func setDiff(oldSet, newSet map[string]int) (added, removed int) {
	for k, n := range newSet {
		if n > oldSet[k] {
			added += n - oldSet[k]
		}
	}
	for k, n := range oldSet {
		if n > newSet[k] {
			removed += n - newSet[k]
		}
	}
	return added, removed
}

func sameMembers(a, b *ir.AsSet) bool {
	if len(a.MemberASNs) != len(b.MemberASNs) || len(a.MemberSets) != len(b.MemberSets) {
		return false
	}
	am := map[ir.ASN]int{}
	for _, x := range a.MemberASNs {
		am[x]++
	}
	for _, x := range b.MemberASNs {
		am[x]--
		if am[x] < 0 {
			return false
		}
	}
	as := map[string]int{}
	for _, x := range a.MemberSets {
		as[x]++
	}
	for _, x := range b.MemberSets {
		as[x]--
		if as[x] < 0 {
			return false
		}
	}
	return true
}

// sameRouteSetMembers compares two route-sets' member lists as
// multisets (matching the as-set idiom above).
func sameRouteSetMembers(a, b *ir.RouteSet) bool {
	if len(a.Members) != len(b.Members) {
		return false
	}
	counts := map[string]int{}
	for _, m := range a.Members {
		counts[fmt.Sprint(m)]++
	}
	for _, m := range b.Members {
		k := fmt.Sprint(m)
		counts[k]--
		if counts[k] < 0 {
			return false
		}
	}
	return true
}

type pair struct {
	p prefix.Prefix
	o ir.ASN
}

func routePairs(x *ir.IR) map[pair]bool {
	out := make(map[pair]bool, len(x.Routes))
	for _, r := range x.Routes {
		out[pair{r.Prefix, r.Origin}] = true
	}
	return out
}

func sortASNs(s []ir.ASN) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// AdoptionPoint is one snapshot's adoption measurements.
type AdoptionPoint struct {
	// Label identifies the snapshot (a date, a filename, ...).
	Label string `json:"label"`
	// AutNums and WithRules track RPSL adoption; Rules counts all
	// import/export attributes; Routes counts (prefix, origin) pairs.
	AutNums   int `json:"aut_nums"`
	WithRules int `json:"with_rules"`
	Rules     int `json:"rules"`
	Routes    int `json:"routes"`
	AsSets    int `json:"as_sets"`
	RouteSets int `json:"route_sets"`
}

// Series computes the adoption time series over snapshots, in order.
func Series(labels []string, snapshots []*ir.IR) []AdoptionPoint {
	out := make([]AdoptionPoint, 0, len(snapshots))
	for i, x := range snapshots {
		p := AdoptionPoint{AutNums: len(x.AutNums), AsSets: len(x.AsSets), RouteSets: len(x.RouteSets)}
		if i < len(labels) {
			p.Label = labels[i]
		}
		for _, an := range x.AutNums {
			rc := an.RuleCount()
			if rc > 0 {
				p.WithRules++
			}
			p.Rules += rc
		}
		p.Routes = len(routePairs(x))
		out = append(out, p)
	}
	return out
}
