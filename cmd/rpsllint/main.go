// Command rpsllint is the RPSL linter the paper's conclusion proposes:
// it audits IRR dumps for the misuses and anomalies Sections 4 and 5
// identify (empty and looping as-sets, unrecorded references,
// export-self and import-customer patterns, community filters, ...)
// and classifies each AS's RPSL usage.
//
// Usage:
//
//	rpsllint -dumps data/ [-rels data/as-rel.txt] [-min warning]
package main

import (
	"flag"
	"fmt"
	"maps"
	"slices"
	"sort"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/core"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/lint"
	"rpslyzer/internal/telemetry"
)

func main() {
	var (
		dumps    = flag.String("dumps", "data", "directory with *.db IRR dumps")
		relsPath = flag.String("rels", "", "optional CAIDA-format relationship file (enables misuse checks)")
		minSev   = flag.String("min", "info", "minimum severity to print: info, warning, error")
	)
	flag.Parse()
	telemetry.SetupLogger("rpsllint", nil)

	var threshold lint.Severity
	switch *minSev {
	case "info":
		threshold = lint.Info
	case "warning":
		threshold = lint.Warning
	case "error":
		threshold = lint.Error
	default:
		telemetry.Fatal("bad -min value", "min", *minSev)
	}

	x, _, err := core.LoadDumpDir(*dumps)
	if err != nil {
		telemetry.Fatal("load failed", "err", err)
	}
	db := irr.New(x)
	var rels *asrel.Database
	if *relsPath != "" {
		rels, err = core.LoadRels(*relsPath)
		if err != nil {
			telemetry.Fatal("load relationships failed", "err", err)
		}
	}

	findings := lint.New(db, rels).Run()
	printed := 0
	for _, f := range findings {
		if f.Severity < threshold {
			continue
		}
		fmt.Println(f)
		printed++
	}
	fmt.Printf("\n%d findings (%d shown)\n", len(findings), printed)
	summary := lint.Summary(findings)
	// Most frequent first; equal counts by name, so the output is the
	// same on every run.
	rules := slices.Sorted(maps.Keys(summary))
	sort.SliceStable(rules, func(i, j int) bool { return summary[rules[i]] > summary[rules[j]] })
	for _, r := range rules {
		fmt.Printf("  %-26s %d\n", r, summary[r])
	}

	counts := lint.ClassifyAll(db, x.SortedAutNums())
	fmt.Println("\nusage classification (registered ASes):")
	for u := lint.UsageNoAutNum; u < lint.NumUsageClasses; u++ {
		if u == lint.UsageNoAutNum {
			continue // not meaningful when iterating registered ASes
		}
		fmt.Printf("  %-12s %d\n", u, counts[u])
	}
}
