// Command irrdiff compares two IRR snapshot directories and reports
// what changed: aut-num and set churn, policy edits, and route-object
// turnover — the longitudinal tooling the paper's conclusion proposes
// for tracking RPSL usage over time.
//
// Usage:
//
//	irrdiff -old snapshots/2023-06 -new snapshots/2023-07
package main

import (
	"flag"
	"fmt"

	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/telemetry"
)

func main() {
	var (
		oldDir = flag.String("old", "", "directory with the older *.db dumps")
		newDir = flag.String("new", "", "directory with the newer *.db dumps")
	)
	flag.Parse()
	telemetry.SetupLogger("irrdiff", nil)
	if *oldDir == "" || *newDir == "" {
		telemetry.Fatal("both -old and -new are required")
	}

	oldIR, _, err := core.LoadDumpDir(*oldDir)
	if err != nil {
		telemetry.Fatal("load old snapshot failed", "err", err)
	}
	newIR, _, err := core.LoadDumpDir(*newDir)
	if err != nil {
		telemetry.Fatal("load new snapshot failed", "err", err)
	}

	d := evolve.Compare(oldIR, newIR)
	fmt.Print(d.Summary())
	if d.Empty() {
		fmt.Println("snapshots are identical")
		return
	}
	pts := evolve.Series([]string{*oldDir, *newDir}, []*ir.IR{oldIR, newIR})
	fmt.Println("\nadoption series:")
	for _, p := range pts {
		fmt.Printf("  %-24s aut-nums=%d with-rules=%d rules=%d routes=%d as-sets=%d route-sets=%d\n",
			p.Label, p.AutNums, p.WithRules, p.Rules, p.Routes, p.AsSets, p.RouteSets)
	}
}
