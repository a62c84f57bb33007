package stats

import (
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/ir"
)

func TestClassTotals(t *testing.T) {
	x := ir.New()
	x.CountObject("RIPE", "aut-num")
	x.CountObject("RIPE", "route")
	x.CountObject("RADB", "route")
	x.CountObject("RADB", "as-set")
	totals := ClassTotals(x)
	if totals["route"] != 2 || totals["aut-num"] != 1 || totals["as-set"] != 1 {
		t.Errorf("totals = %v", totals)
	}
}

func TestThroughputString(t *testing.T) {
	s := ThroughputLine(2<<20, 1000, 4, map[string]int64{"RIPE": 3}, 8, 2*time.Second)
	for _, want := range []string{"1.0 MiB/s", "500 objects/s", "4 chunks", "8 workers", "3 parse errors"} {
		if !strings.Contains(s, want) {
			t.Errorf("throughput %q missing %q", s, want)
		}
	}
	// Zero elapsed must not divide by zero.
	if s := ThroughputLine(1, 0, 0, nil, 0, 0); s == "" || strings.Contains(s, "NaN") || strings.Contains(s, "Inf") {
		t.Errorf("zero-elapsed throughput = %q", s)
	}
}

func TestThroughputSourceErrors(t *testing.T) {
	line := func(errs map[string]int64) string { return ThroughputLine(1<<20, 10, 1, errs, 1, time.Second) }
	// Summed into the total; sorted by descending count, names carried through.
	s := line(map[string]int64{"RIPE": 4, "RADB": 2, "ARIN": 1})
	if !strings.Contains(s, "7 parse errors)\nparse errors by registry: RIPE=4 RADB=2 ARIN=1") {
		t.Errorf("per-registry breakdown missing or misordered in %q", s)
	}
	// Count ties break alphabetically.
	if s := line(map[string]int64{"B": 1, "A": 1}); !strings.Contains(s, "A=1 B=1") {
		t.Errorf("tie order wrong in %q", s)
	}
	// Without errors the line stays single-line.
	if s := line(nil); strings.Contains(s, "\n") {
		t.Errorf("unexpected breakdown line in %q", s)
	}
}
