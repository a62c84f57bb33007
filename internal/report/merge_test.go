package report_test

import (
	"fmt"
	"reflect"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/report"
	"rpslyzer/internal/verify"
)

// aggregate adds reports to a fresh aggregator in one pass.
func aggregate(reports []verify.RouteReport) *report.Aggregator {
	a := report.NewAggregator()
	for _, rep := range reports {
		a.Add(rep)
	}
	return a
}

// TestMergeMatchesOnePass: partials over any split of the reports,
// merged, count what one Add pass over all of them counts.
func TestMergeMatchesOnePass(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 300, Collectors: 8})
	if err != nil {
		t.Fatal(err)
	}
	reports := sys.Verifier.VerifyAll(sys.CollectRoutes(8, 42), 0)
	n := len(reports)
	one := aggregate(reports)
	if one.Routes == 0 || one.IgnoredASSet+one.IgnoredSingleAS == 0 {
		t.Fatalf("fixture: %d routes, %d+%d ignored; it must have both", one.Routes, one.IgnoredASSet, one.IgnoredSingleAS)
	}

	type split struct {
		name   string
		bounds []int // the parts are reports[bounds[i-1]:bounds[i]]
	}
	var splits []split
	for _, at := range []int{0, 1, n / 2, n - 1, n} {
		splits = append(splits, split{fmt.Sprintf("at %d", at), []int{0, at, n}})
	}
	for _, parts := range []int{3, 7} {
		sp := split{name: fmt.Sprintf("%d parts", parts)}
		for p := 0; p <= parts; p++ {
			sp.bounds = append(sp.bounds, p*n/parts)
		}
		splits = append(splits, sp)
	}
	for _, sp := range splits {
		bounds := sp.bounds
		t.Run(sp.name, func(t *testing.T) {
			merged := aggregate(reports[bounds[0]:bounds[1]])
			for i := 2; i < len(bounds); i++ {
				merged.Merge(aggregate(reports[bounds[i-1]:bounds[i]]))
			}
			for _, v := range []struct {
				name      string
				got, want any
			}{
				{"Figure2", merged.Figure2(), one.Figure2()},
				{"Figure3", merged.Figure3(), one.Figure3()},
				{"Figure4", merged.Figure4(), one.Figure4()},
				{"Figure5", merged.Figure5(), one.Figure5()},
				{"Figure6", merged.Figure6(), one.Figure6()},
				{"PerAS", merged.PerAS(), one.PerAS()},
				{"NumPairs", merged.NumPairs(), one.NumPairs()},
				{"Checks", merged.Checks, one.Checks},
				{"FirstHop", merged.FirstHop, one.FirstHop},
				{"ReasonChecks", merged.ReasonChecks, one.ReasonChecks},
				{"Routes", merged.Routes, one.Routes},
				{"ignored", [2]int64{merged.IgnoredASSet, merged.IgnoredSingleAS}, [2]int64{one.IgnoredASSet, one.IgnoredSingleAS}},
			} {
				if !reflect.DeepEqual(v.got, v.want) {
					t.Errorf("%s = %+v, one pass = %+v", v.name, v.got, v.want)
				}
			}
		})
	}
}
