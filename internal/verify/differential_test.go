// Differential tests for the compiled evaluation core: the compiled
// engine must produce byte-identical reports to the tree-walking
// interpreter (Config.Eval == "interp") across the full 13-registry
// synthetic corpus and every config variant. This lives in an external
// test package because it drives the corpus through internal/core,
// which itself imports verify.
package verify_test

import (
	"strings"
	"sync"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/verify"
)

var (
	diffOnce   sync.Once
	diffSys    *core.System
	diffRoutes []bgpsim.Route
)

// diffCorpus builds the shared synthetic universe once: 13 IRR dumps
// over a generated topology, with routes observed by 6 collectors.
func diffCorpus(t *testing.T) (*core.System, []bgpsim.Route) {
	t.Helper()
	diffOnce.Do(func() {
		sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 600, Collectors: 6})
		if err != nil {
			panic(err)
		}
		diffSys = sys
		diffRoutes = sys.CollectRoutes(6, 42)
	})
	if len(diffRoutes) == 0 {
		t.Fatal("synthetic corpus produced no routes")
	}
	return diffSys, diffRoutes
}

// renderReport serializes everything the differential contract covers:
// per-check From/To/Dir/Status and the exact Reason sequence.
func renderReport(rep verify.RouteReport) string {
	var b strings.Builder
	if rep.Ignored != "" {
		b.WriteString("ignored:")
		b.WriteString(rep.Ignored)
		return b.String()
	}
	for _, c := range rep.Checks {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func diffEngines(t *testing.T, cfg verify.Config) {
	sys, routes := diffCorpus(t)

	interpCfg := cfg
	interpCfg.Eval = "interp"
	compiledCfg := cfg
	compiledCfg.Eval = "compiled"
	interp := verify.New(sys.DB, sys.Rels, interpCfg)
	compiled := verify.New(sys.DB, sys.Rels, compiledCfg)

	got := compiled.VerifyAll(routes, 0)
	want := interp.VerifyAll(routes, 0)
	if len(got) != len(want) {
		t.Fatalf("report counts differ: compiled %d, interp %d", len(got), len(want))
	}
	mismatches := 0
	for i := range got {
		g, w := renderReport(got[i]), renderReport(want[i])
		if g != w {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("route %s path %v:\ncompiled:\n%s\ninterp:\n%s",
					routes[i].Prefix, routes[i].Path, g, w)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d reports differ between compiled and interp engines", mismatches, len(got))
	}
}

func TestCompiledMatchesInterp(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential test")
	}
	diffEngines(t, verify.Config{})
}
