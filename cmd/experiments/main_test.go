package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"rpslyzer/internal/core"
)

var (
	heapRE    = regexp.MustCompile(`heap in use: [0-9.]+ MiB`)
	elapsedRE = regexp.MustCompile(` in [0-9][0-9.hmnµ]*s`)
	rateRE    = regexp.MustCompile(`= [0-9]+ routes/s on [0-9]+ partitions`)
)

// blank cuts the telemetry block and blanks what depends on the host:
// the heap, durations, the rate and the partition count.
func blank(out string) string {
	out, _, _ = strings.Cut(out, "== Telemetry ==\n")
	out = heapRE.ReplaceAllString(out, "heap in use: H MiB")
	out = elapsedRE.ReplaceAllString(out, " in T")
	return rateRE.ReplaceAllString(out, "= R routes/s on P partitions")
}

// sections splits blanked output at its "== heading ==" lines.
func sections(out string) map[string]string {
	m := map[string]string{}
	for _, s := range strings.Split(out, "== ")[1:] {
		heading, body, _ := strings.Cut(s, " ==\n")
		m[heading] = body
	}
	return m
}

func experiments(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if code := run(args, &out); code != 0 {
		t.Fatalf("experiments %s exited %d", strings.Join(args, " "), code)
	}
	return blank(out.String())
}

// TestCorpusMatchesGenerated runs every row over a 200-AS corpus that
// WriteUniverseStream wrote, once as -corpus and once as the default
// run at the same seed and size, which writes the same corpus itself.
// Every measurement row must print the same bytes both ways, every
// ground-truth row must print its skip line under -corpus, and the
// default output must equal testdata/u200.golden.
func TestCorpusMatchesGenerated(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := core.WriteUniverseStream(core.Options{Seed: 5, ASes: 200}, 4, 5, dir); err != nil {
		t.Fatal(err)
	}
	generated := experiments(t, "-ases", "200", "-collectors", "4", "-seed", "5")
	fromDisk := sections(experiments(t, "-corpus", dir, "-seed", "5"))

	gen := sections(generated)
	if len(gen) != len(rows) || len(fromDisk) != len(rows) {
		t.Fatalf("printed %d rows by default and %d under -corpus, want %d", len(gen), len(fromDisk), len(rows))
	}
	for _, r := range rows {
		heading := r.heading
		if r.gen {
			heading += " (needs the generator)"
		}
		want := gen[heading]
		if r.gen {
			want = skipLine + "\n\n"
		}
		if got, ok := fromDisk[heading]; !ok || got != want {
			t.Errorf("%s under -corpus:\n%s\nwant:\n%s", r.name, got, want)
		}
	}

	golden, err := os.ReadFile("testdata/u200.golden")
	if err != nil {
		t.Fatal(err)
	}
	if generated != string(golden) {
		t.Errorf("default output differs from testdata/u200.golden:\n%s", generated)
	}
}

func TestUnknownRowExits2(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-only", "nosuch"}, &out); code != 2 {
		t.Errorf("-only nosuch exited %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("-only nosuch printed %q", out.String())
	}
}
