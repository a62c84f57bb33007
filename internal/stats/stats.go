// Package stats implements the paper's Section 4 characterization of
// RPSL use in the wild: the per-IRR object census (Table 1), the
// defined-vs-referenced census (Table 2), the rules-per-aut-num CCDF
// (Figure 1), peering/filter simplicity measurements, route-object
// multiplicity, the as-set pathology census, and the RPSL error
// census.
package stats

import (
	"sort"

	"rpslyzer/internal/bgpq"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
)

// Table1Row is one row of Table 1: per-IRR object counts.
type Table1Row struct {
	IRR     string
	SizeMiB float64
	AutNums int
	Routes  int
	Imports int
	Exports int
}

// Table1 computes per-IRR counts. sizes optionally maps IRR name to
// dump size in bytes (0 rows are kept). The order follows the given
// priority order; IRRs absent from it are appended alphabetically.
func Table1(x *ir.IR, sizes map[string]int64, priority []string) []Table1Row {
	rows := make(map[string]*Table1Row)
	get := func(src string) *Table1Row {
		r := rows[src]
		if r == nil {
			r = &Table1Row{IRR: src}
			rows[src] = r
		}
		return r
	}
	for src, classes := range x.Counts {
		r := get(src)
		r.AutNums = classes["aut-num"]
		r.Routes = classes["route"] + classes["route6"]
	}
	for _, an := range x.AutNums {
		r := get(an.Source)
		r.Imports += len(an.Imports)
		r.Exports += len(an.Exports)
	}
	for src, sz := range sizes {
		get(src).SizeMiB = float64(sz) / (1 << 20)
	}
	ordered := make([]Table1Row, 0, len(rows))
	seen := make(map[string]bool)
	for _, name := range priority {
		if r, ok := rows[name]; ok {
			ordered = append(ordered, *r)
			seen[name] = true
		}
	}
	var rest []string
	for name := range rows {
		if !seen[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		ordered = append(ordered, *rows[name])
	}
	return ordered
}

// Table1Total sums rows into the paper's "Total" line.
func Table1Total(rows []Table1Row) Table1Row {
	total := Table1Row{IRR: "Total"}
	for _, r := range rows {
		total.SizeMiB += r.SizeMiB
		total.AutNums += r.AutNums
		total.Routes += r.Routes
		total.Imports += r.Imports
		total.Exports += r.Exports
	}
	return total
}

// Table2Counts is one column of Table 2 for an object class.
type Table2Counts struct {
	Defined    int
	RefOverall int
	RefPeering int
	RefFilter  int
}

// Table2 is the defined-vs-referenced census.
type Table2 struct {
	AutNum, AsSet, RouteSet, PeeringSet, FilterSet Table2Counts
}

// refCollector gathers distinct references from rules.
type refCollector struct {
	autNums, asSets, routeSets, peeringSets, filterSets map[string]bool
}

func newRefCollector() *refCollector {
	return &refCollector{
		autNums:     make(map[string]bool),
		asSets:      make(map[string]bool),
		routeSets:   make(map[string]bool),
		peeringSets: make(map[string]bool),
		filterSets:  make(map[string]bool),
	}
}

// ComputeTable2 walks every rule of every aut-num, tracking which
// objects are referenced in peerings and filters.
func ComputeTable2(x *ir.IR) Table2 {
	peering := newRefCollector()
	filter := newRefCollector()

	peeringRef := func(e *ir.ASExpr) {
		switch e.Kind {
		case ir.ASExprNum:
			peering.autNums[e.ASN.String()] = true
		case ir.ASExprSet:
			peering.asSets[e.Name] = true
		}
	}
	filterRef := func(n *ir.Filter) {
		switch n.Kind {
		case ir.FilterASN:
			filter.autNums[n.ASN.String()] = true
		case ir.FilterAsSet:
			filter.asSets[n.Name] = true
		case ir.FilterRouteSet:
			filter.routeSets[n.Name] = true
		case ir.FilterFilterSet:
			filter.filterSets[n.Name] = true
		case ir.FilterPathRegex:
			n.Regex.WalkTerms(func(t *ir.PathTerm) {
				switch t.Kind {
				case ir.PathASN:
					filter.autNums[t.ASN.String()] = true
				case ir.PathSet:
					filter.asSets[t.Name] = true
				}
			})
		}
	}
	for _, an := range x.AutNums {
		for r := range an.Rules() {
			for f := range r.Expr.AllFactors() {
				for j := range f.Peerings {
					p := &f.Peerings[j].Peering
					if p.PeeringSet != "" {
						peering.peeringSets[p.PeeringSet] = true
					}
					p.ASExpr.Walk(peeringRef)
				}
				f.Filter.Walk(filterRef)
			}
		}
	}

	union := func(a, b map[string]bool) int {
		u := make(map[string]bool, len(a)+len(b))
		for k := range a {
			u[k] = true
		}
		for k := range b {
			u[k] = true
		}
		return len(u)
	}
	return Table2{
		AutNum: Table2Counts{
			Defined:    len(x.AutNums),
			RefOverall: union(peering.autNums, filter.autNums),
			RefPeering: len(peering.autNums),
			RefFilter:  len(filter.autNums),
		},
		AsSet: Table2Counts{
			Defined:    len(x.AsSets),
			RefOverall: union(peering.asSets, filter.asSets),
			RefPeering: len(peering.asSets),
			RefFilter:  len(filter.asSets),
		},
		RouteSet: Table2Counts{
			Defined:    len(x.RouteSets),
			RefOverall: len(filter.routeSets),
			RefFilter:  len(filter.routeSets),
		},
		PeeringSet: Table2Counts{
			Defined:    len(x.PeeringSets),
			RefOverall: len(peering.peeringSets),
			RefPeering: len(peering.peeringSets),
		},
		FilterSet: Table2Counts{
			Defined:    len(x.FilterSets),
			RefOverall: len(filter.filterSets),
			RefFilter:  len(filter.filterSets),
		},
	}
}

// CCDFPoint is one point of a complementary CDF: the fraction of ASes
// with at least X rules.
type CCDFPoint struct {
	X    int
	Frac float64
}

// RuleCCDF computes the Figure 1 series: the CCDF of rules per
// aut-num, for all rules and for the BGPq4-compatible subset.
func RuleCCDF(x *ir.IR) (all, bgpq4 []CCDFPoint) {
	var allCounts, compatCounts []int
	for _, an := range x.AutNums {
		allCounts = append(allCounts, an.RuleCount())
		compat := 0
		for r := range an.Rules() {
			if bgpq.Compatible(r) {
				compat++
			}
		}
		compatCounts = append(compatCounts, compat)
	}
	return ccdf(allCounts), ccdf(compatCounts)
}

func ccdf(counts []int) []CCDFPoint {
	if len(counts) == 0 {
		return nil
	}
	sort.Ints(counts)
	n := len(counts)
	var out []CCDFPoint
	// Points at each distinct count value: fraction of ASes with >= x.
	for i := 0; i < n; {
		x := counts[i]
		out = append(out, CCDFPoint{X: x, Frac: float64(n-i) / float64(n)})
		j := i
		for j < n && counts[j] == x {
			j++
		}
		i = j
	}
	return out
}

// FracWithAtLeast reads a CCDF: the fraction of ASes with at least x
// rules. Points are ascending in X, so the first point at or above x
// carries the answer (counts between point values do not occur).
func FracWithAtLeast(points []CCDFPoint, x int) float64 {
	for _, p := range points {
		if p.X >= x {
			return p.Frac
		}
	}
	return 0
}

// Section4Stats bundles the in-text Section 4 measurements.
type Section4Stats struct {
	// ASes and rule distribution.
	AutNums         int
	AutNumsNoRules  int
	AutNums10Plus   int
	AutNums1000Plus int
	// Peering simplicity: fraction of peerings that are a single ASN
	// or ANY.
	Peerings       int
	SimplePeerings int
	// ASes with rules whose filters are all BGPq4-compatible.
	ASesWithRules int
	ASesBGPq4Only int
	// Filter class histogram over all factors.
	FilterClasses map[string]int
}

// ComputeSection4 gathers the in-text numbers.
func ComputeSection4(x *ir.IR) Section4Stats {
	s := Section4Stats{FilterClasses: make(map[string]int)}
	s.AutNums = len(x.AutNums)
	for _, an := range x.AutNums {
		rc := an.RuleCount()
		if rc == 0 {
			s.AutNumsNoRules++
			continue
		}
		s.ASesWithRules++
		if rc >= 10 {
			s.AutNums10Plus++
		}
		if rc >= 1000 {
			s.AutNums1000Plus++
		}
		allCompat := true
		for r := range an.Rules() {
			if !bgpq.Compatible(r) {
				allCompat = false
			}
			for f := range r.Expr.AllFactors() {
				s.FilterClasses[filterClass(f.Filter)]++
				for j := range f.Peerings {
					s.Peerings++
					if simplePeering(&f.Peerings[j].Peering) {
						s.SimplePeerings++
					}
				}
			}
		}
		if allCompat {
			s.ASesBGPq4Only++
		}
	}
	return s
}

// simplePeering reports whether a peering is a single ASN or AS-ANY
// (the paper's 98.4%).
func simplePeering(p *ir.Peering) bool {
	if p.PeeringSet != "" || p.ASExpr == nil {
		return false
	}
	return p.ASExpr.Kind == ir.ASExprNum || p.ASExpr.Kind == ir.ASExprAny
}

// filterClass buckets a filter for the Section 4 histogram.
func filterClass(f *ir.Filter) string {
	if f == nil {
		return "none"
	}
	switch f.Kind {
	case ir.FilterAsSet:
		return "as-set"
	case ir.FilterASN:
		return "asn"
	case ir.FilterAny, ir.FilterNone:
		return "any"
	case ir.FilterPeerAS:
		return "peer-as"
	case ir.FilterRouteSet:
		return "route-set"
	case ir.FilterFilterSet:
		return "filter-set"
	case ir.FilterPrefixSet:
		return "prefix-set"
	case ir.FilterPathRegex:
		return "as-path-regex"
	case ir.FilterCommunity:
		return "community"
	case ir.FilterAnd, ir.FilterOr, ir.FilterNot:
		return "composite"
	}
	return "unsupported"
}

// RouteObjectStats reproduces the route-object multiplicity numbers.
type RouteObjectStats struct {
	Objects             int
	UniquePrefixOrigin  int
	UniquePrefixes      int
	MultiObjectPrefixes int // prefixes with >1 route object
	MultiOriginPrefixes int // among those, with differing origins
	MultiSourcePrefixes int // prefixes with objects from >1 maintainer/source
}

// ComputeRouteObjectStats counts route-object multiplicity.
func ComputeRouteObjectStats(x *ir.IR) RouteObjectStats {
	type po struct {
		p prefix.Prefix
		o ir.ASN
	}
	var s RouteObjectStats
	s.Objects = len(x.Routes)
	pairs := make(map[po]bool)
	perPrefix := make(map[prefix.Prefix]int)
	origins := make(map[prefix.Prefix]map[ir.ASN]bool)
	owners := make(map[prefix.Prefix]map[string]bool)
	for _, r := range x.Routes {
		pairs[po{r.Prefix, r.Origin}] = true
		perPrefix[r.Prefix]++
		if origins[r.Prefix] == nil {
			origins[r.Prefix] = make(map[ir.ASN]bool)
		}
		origins[r.Prefix][r.Origin] = true
		owner := r.Source
		if len(r.MntBys) > 0 {
			owner = r.MntBys[0]
		}
		if owners[r.Prefix] == nil {
			owners[r.Prefix] = make(map[string]bool)
		}
		owners[r.Prefix][owner] = true
	}
	s.UniquePrefixOrigin = len(pairs)
	s.UniquePrefixes = len(perPrefix)
	for p, n := range perPrefix {
		if n > 1 {
			s.MultiObjectPrefixes++
			if len(origins[p]) > 1 {
				s.MultiOriginPrefixes++
			}
		}
		if len(owners[p]) > 1 {
			s.MultiSourcePrefixes++
		}
	}
	return s
}

// AsSetStats reproduces the as-set pathology census.
type AsSetStats struct {
	Total        int
	Empty        int
	SingleMember int
	ContainsANY  int
	Huge         int // > 10,000 flattened members
	Recursive    int
	InLoop       int
	Depth5Plus   int
}

// ComputeAsSetStats runs the as-set census over the flattened sets.
func ComputeAsSetStats(db *irr.Database) AsSetStats {
	var s AsSetStats
	for name, set := range db.IR.AsSets {
		s.Total++
		fs, _ := db.AsSet(name)
		direct := len(set.MemberASNs) + len(set.MemberSets)
		if direct == 0 && !set.ContainsAnyKeyword {
			s.Empty++
		}
		if direct == 1 && len(set.MemberASNs) == 1 {
			s.SingleMember++
		}
		if set.ContainsAnyKeyword {
			s.ContainsANY++
		}
		if fs != nil {
			if len(fs.ASNs) > 10000 {
				s.Huge++
			}
			if fs.Recursive {
				s.Recursive++
			}
			if fs.InLoop {
				s.InLoop++
			}
			if fs.Recursive && fs.Depth >= 5 {
				s.Depth5Plus++
			}
		}
	}
	return s
}

// ErrorCensus counts parse errors by kind (the paper's 663 syntax
// errors, 12 invalid as-set names, 17 invalid route-set names).
func ErrorCensus(x *ir.IR) map[string]int {
	out := make(map[string]int)
	for _, e := range x.Errors {
		out[e.Kind]++
	}
	return out
}
