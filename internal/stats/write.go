package stats

import (
	"fmt"
	"io"

	"rpslyzer/internal/ir"
)

// The Section 4 tables as cmd/characterize and cmd/experiments both
// print them, each followed by a blank line; the heading is the caller's.

// WriteTable1 prints Table 1 over x, dump sizes to sizePrec decimals.
func WriteTable1(w io.Writer, x *ir.IR, sizes map[string]int64, priority []string, sizePrec int) {
	rows := Table1(x, sizes, priority)
	fmt.Fprintf(w, "%-10s %10s %9s %9s %9s %9s\n", "IRR", "SIZE(MiB)", "aut-num", "route", "import", "export")
	for _, r := range append(rows, Table1Total(rows)) {
		fmt.Fprintf(w, "%-10s %10.*f %9d %9d %9d %9d\n", r.IRR, sizePrec, r.SizeMiB, r.AutNums, r.Routes, r.Imports, r.Exports)
	}
	fmt.Fprintln(w)
}

// WriteTable2 prints Table 2 over x.
func WriteTable2(w io.Writer, x *ir.IR) {
	t2 := ComputeTable2(x)
	fmt.Fprintf(w, "%-12s %9s %9s %9s %9s\n", "", "defined", "overall", "peering", "filter")
	for _, row := range []struct {
		name string
		c    Table2Counts
	}{
		{"aut-num", t2.AutNum}, {"as-set", t2.AsSet}, {"route-set", t2.RouteSet},
		{"peering-set", t2.PeeringSet}, {"filter-set", t2.FilterSet},
	} {
		fmt.Fprintf(w, "%-12s %9d %9d %9d %9d\n", row.name, row.c.Defined, row.c.RefOverall, row.c.RefPeering, row.c.RefFilter)
	}
	fmt.Fprintln(w)
}

// WriteFigure1 prints Figure 1's two CCDFs over x at the given rule
// counts, in columns width wide, the BGPq4-compatible one titled compat.
func WriteFigure1(w io.Writer, x *ir.IR, atLeast []int, compat string, width int) {
	all, bq := RuleCCDF(x)
	fmt.Fprintf(w, "%-8s %-*s %-*s\n", "rules>=", width, "all", width, compat)
	for _, n := range atLeast {
		fmt.Fprintf(w, "%-8d %-*.4f %-*.4f\n", n, width, FracWithAtLeast(all, n), width, FracWithAtLeast(bq, n))
	}
	fmt.Fprintln(w)
}
