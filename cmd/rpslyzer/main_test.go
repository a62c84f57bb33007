package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"regexp"
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

// TestSummaryAndExportMatchGolden runs the command over the 200-AS
// universe the daemon tests build, at one and eight workers. The
// summary (durations, rates and the worker count blanked) and the
// "-o -" export must equal testdata/u200.golden, captured from the
// LoadStats-counting rpslyzer this one replaced, and the counts the
// pipeline: line prints from the telemetry counters must equal the
// totals of the IR that was exported.
func TestSummaryAndExportMatchGolden(t *testing.T) {
	dir := t.TempDir()
	sys, err := core.BuildSynthetic(core.Options{Seed: 5, ASes: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteUniverse(sys, nil, dir); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/u200.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		var out bytes.Buffer
		run([]string{"-dumps", dir, "-workers", fmt.Sprint(workers), "-o", "-", "-log-level", "error"},
			telemetry.NewRegistry("rpslyzer_test"), &out)
		lines := strings.SplitAfterN(out.String(), "\n", 6)
		if len(lines) != 6 {
			t.Fatalf("workers=%d: output has %d lines, want a 5-line summary and the export", workers, len(lines)-1)
		}
		summary, export := strings.Join(lines[:5], ""), lines[5]

		got := elapsedRE.ReplaceAllString(summary, " in T")
		got = ratesRE.ReplaceAllString(got, "pipeline: X MiB/s, Y objects/s")
		got = strings.Replace(got, fmt.Sprintf(", %d workers,", workers), ", W workers,", 1)
		got += fmt.Sprintf("-o - sha256: %x\n", sha256.Sum256([]byte(export)))
		if got != string(golden) {
			t.Errorf("workers=%d: output differs from testdata/u200.golden:\n%s", workers, got)
		}

		x, err := ir.ReadJSON(strings.NewReader(export))
		if err != nil {
			t.Fatalf("workers=%d: export does not read back: %v", workers, err)
		}
		objects := 0
		for _, classes := range x.Counts {
			for _, n := range classes {
				objects += n
			}
		}
		// Every dump of this universe fits one chunk, so chunks count
		// the registries.
		want := fmt.Sprintf("(%d objects, %d chunks, %d workers, %d parse errors)", objects, len(x.Counts), workers, len(x.Errors))
		if printed := countsRE.FindString(summary); printed != want {
			t.Errorf("workers=%d: pipeline line counts %s, the exported IR holds %s", workers, printed, want)
		}
	}
}
