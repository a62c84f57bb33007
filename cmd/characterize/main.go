// Command characterize runs the paper's Section 4 analyses over IRR
// dumps: the per-IRR census (Table 1), defined-vs-referenced objects
// (Table 2), the rules-per-aut-num CCDF (Figure 1), peering/filter
// simplicity, route-object multiplicity, the as-set pathology census,
// and the RPSL error census.
//
// Usage:
//
//	characterize -dumps data/
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"rpslyzer/internal/core"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/telemetry"
)

func main() {
	dumps := flag.String("dumps", "data", "directory with *.db IRR dumps")
	flag.Parse()
	telemetry.SetupLogger("characterize", nil)

	x, sizes, err := core.LoadDumpDir(*dumps)
	if err != nil {
		telemetry.Fatal("load failed", "err", err)
	}
	db := irr.New(x)

	fmt.Println("== Table 1: IRRs used, grouped and ordered by priority ==")
	stats.WriteTable1(os.Stdout, x, sizes, irrgen.IRRs, 1)

	fmt.Println("== Table 2: objects defined and referenced in rules ==")
	stats.WriteTable2(os.Stdout, x)

	fmt.Println("== Figure 1: CCDF of rules per aut-num ==")
	stats.WriteFigure1(os.Stdout, x, []int{1, 2, 5, 10, 50, 100, 1000}, "bgpq4-compat", 12)

	fmt.Println("== Section 4 in-text statistics ==")
	s4 := stats.ComputeSection4(x)
	pct := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return 100 * float64(a) / float64(b)
	}
	fmt.Printf("aut-nums: %d; with no rules: %d (%.1f%%); >=10 rules: %d (%.1f%%); >=1000 rules: %d\n",
		s4.AutNums, s4.AutNumsNoRules, pct(s4.AutNumsNoRules, s4.AutNums),
		s4.AutNums10Plus, pct(s4.AutNums10Plus, s4.AutNums), s4.AutNums1000Plus)
	fmt.Printf("simple peerings (single ASN or ANY): %d/%d (%.1f%%)\n",
		s4.SimplePeerings, s4.Peerings, pct(s4.SimplePeerings, s4.Peerings))
	fmt.Printf("BGPq4-compatible rule-writing ASes: %d/%d (%.1f%%)\n",
		s4.ASesBGPq4Only, s4.ASesWithRules, pct(s4.ASesBGPq4Only, s4.ASesWithRules))
	var classes []string
	totalFilters := 0
	for c, n := range s4.FilterClasses {
		classes = append(classes, c)
		totalFilters += n
	}
	sort.Slice(classes, func(i, j int) bool {
		return s4.FilterClasses[classes[i]] > s4.FilterClasses[classes[j]]
	})
	fmt.Println("filter classes:")
	for _, c := range classes {
		fmt.Printf("  %-14s %7d (%.1f%%)\n", c, s4.FilterClasses[c], pct(s4.FilterClasses[c], totalFilters))
	}
	fmt.Println()

	fmt.Println("== Route objects ==")
	ro := stats.ComputeRouteObjectStats(x)
	fmt.Printf("objects: %d; unique prefix-origin pairs: %d; unique prefixes: %d\n",
		ro.Objects, ro.UniquePrefixOrigin, ro.UniquePrefixes)
	fmt.Printf("multi-object prefixes: %d (%.1f%%); of those multi-origin: %d (%.1f%%); multi-operator: %d (%.1f%%)\n",
		ro.MultiObjectPrefixes, pct(ro.MultiObjectPrefixes, ro.UniquePrefixes),
		ro.MultiOriginPrefixes, pct(ro.MultiOriginPrefixes, ro.MultiObjectPrefixes),
		ro.MultiSourcePrefixes, pct(ro.MultiSourcePrefixes, ro.UniquePrefixes))
	fmt.Println()

	fmt.Println("== as-sets ==")
	as := stats.ComputeAsSetStats(db)
	fmt.Printf("total: %d; empty: %d (%.1f%%); single-member: %d (%.1f%%); with ANY member: %d; >10k members: %d\n",
		as.Total, as.Empty, pct(as.Empty, as.Total), as.SingleMember, pct(as.SingleMember, as.Total),
		as.ContainsANY, as.Huge)
	fmt.Printf("recursive: %d (%.1f%%); in loops: %d (%.1f%% of recursive); depth>=5: %d (%.1f%% of recursive)\n",
		as.Recursive, pct(as.Recursive, as.Total),
		as.InLoop, pct(as.InLoop, as.Recursive), as.Depth5Plus, pct(as.Depth5Plus, as.Recursive))
	fmt.Println()

	fmt.Println("== RPSL errors ==")
	census := stats.ErrorCensus(x)
	var kinds []string
	for k := range census {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("  %-24s %d\n", k, census[k])
	}
}
