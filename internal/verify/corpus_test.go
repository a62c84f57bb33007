// The fixed 600-AS corpus the sharing and reverify tests run on. This
// lives in an external test package because it drives the corpus
// through internal/core, which itself imports verify.
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

// renderReport serializes everything two reports must agree on:
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
