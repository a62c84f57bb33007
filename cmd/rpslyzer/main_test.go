package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/telemetry"
)

var (
	elapsedRE = regexp.MustCompile(`(?m) in [0-9.]+(µs|ms|s)$`)
	ratesRE   = regexp.MustCompile(`pipeline: [0-9.]+ MiB/s, [0-9]+ objects/s`)
	countsRE  = regexp.MustCompile(`\(\d+ objects, \d+ chunks, \d+ workers, \d+ parse errors\)`)
)

// u200 writes the 200-AS universe the daemon tests build and returns
// its directory.
func u200(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	sys, err := core.BuildSynthetic(core.Options{Seed: 5, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteUniverse(sys, nil, dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestSummaryAndExportMatchGolden runs the command over the 200-AS
// universe the daemon tests build, at GOMAXPROCS 1 and 8. The summary
// (durations, rates and the worker count blanked) and the "-o -"
// export must equal testdata/u200.golden, captured from the
// LoadStats-counting rpslyzer this one replaced, and the counts the
// pipeline: line prints from the telemetry counters must equal the
// totals of the IR that was exported, with a parse pool of GOMAXPROCS
// workers.
func TestSummaryAndExportMatchGolden(t *testing.T) {
	dir := u200(t)
	golden, err := os.ReadFile("testdata/u200.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		var out bytes.Buffer
		run([]string{"-dumps", dir, "-o", "-", "-log-level", "error"},
			telemetry.NewRegistry("rpslyzer_test"), &out)
		lines := strings.SplitAfterN(out.String(), "\n", 6)
		if len(lines) != 6 {
			t.Fatalf("GOMAXPROCS=%d: output has %d lines, want a 5-line summary and the export", procs, len(lines)-1)
		}
		summary, export := strings.Join(lines[:5], ""), lines[5]

		got := elapsedRE.ReplaceAllString(summary, " in T")
		got = ratesRE.ReplaceAllString(got, "pipeline: X MiB/s, Y objects/s")
		got = strings.Replace(got, fmt.Sprintf(", %d workers,", procs), ", W workers,", 1)
		got += fmt.Sprintf("-o - sha256: %x\n", sha256.Sum256([]byte(export)))
		if got != string(golden) {
			t.Errorf("GOMAXPROCS=%d: output differs from testdata/u200.golden:\n%s", procs, got)
		}

		x, err := ir.ReadJSON(strings.NewReader(export))
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: export does not read back: %v", procs, err)
		}
		objects := 0
		for _, classes := range x.Counts {
			for _, n := range classes {
				objects += n
			}
		}
		// Every dump of this universe fits one chunk, so chunks count
		// the registries.
		want := fmt.Sprintf("(%d objects, %d chunks, %d workers, %d parse errors)", objects, len(x.Counts), procs, len(x.Errors))
		if printed := countsRE.FindString(summary); printed != want {
			t.Errorf("GOMAXPROCS=%d: pipeline line counts %s, the exported IR holds %s", procs, printed, want)
		}
	}
}

// TestRenderReloadsToSameIR holds -render to a fixed point: the
// canonical dumps it writes load back through core.LoadDumpDir into
// the objects the original dumps hold, class by class.
func TestRenderReloadsToSameIR(t *testing.T) {
	dir, rendered := u200(t), t.TempDir()
	var out bytes.Buffer
	run([]string{"-dumps", dir, "-render", rendered, "-summary=false", "-log-level", "error"},
		telemetry.NewRegistry("rpslyzer_test"), &out)
	if want := "rendered canonical dumps to " + rendered + "\n"; out.String() != want {
		t.Errorf("output %q, want %q", out.String(), want)
	}
	want, _, err := core.LoadDumpDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := core.LoadDumpDir(rendered)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []struct {
		name      string
		got, want any
	}{
		{"aut-num", got.AutNums, want.AutNums},
		{"as-set", got.AsSets, want.AsSets},
		{"route-set", got.RouteSets, want.RouteSets},
		{"peering-set", got.PeeringSets, want.PeeringSets},
		{"filter-set", got.FilterSets, want.FilterSets},
		{"inet-rtr", got.InetRtrs, want.InetRtrs},
		{"rtr-set", got.RtrSets, want.RtrSets},
		{"route", got.Routes, want.Routes},
	} {
		if !reflect.DeepEqual(class.got, class.want) {
			t.Errorf("%s objects differ after -render and a reload", class.name)
		}
	}
}
