package main

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
)

// TestWritesWhatTheInMemoryUniverseWrites holds irrgen, which streams
// the universe to disk and evolves the IR it reads back, to the
// in-memory path: BuildSynthetic, WriteUniverse and the same evolution
// over the parsed IR must write byte-identical dumps, as-rel.txt,
// routes.txt, journals/ and final/, and routes.mrt must decode to the
// routes in routes.txt.
func TestWritesWhatTheInMemoryUniverseWrites(t *testing.T) {
	out := t.TempDir()
	if err := run([]string{"-out", out, "-ases", "150", "-collectors", "3", "-seed", "9", "-evolve", "2", "-mrt"}, io.Discard); err != nil {
		t.Fatal(err)
	}

	ref := t.TempDir()
	sys, err := core.BuildSynthetic(core.Options{Seed: 9, ASes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteUniverse(sys, sys.CollectRoutes(3, 9), ref); err != nil {
		t.Fatal(err)
	}
	if err := emitEvolution(io.Discard, sys.IR, ref, 2, 9, 0.01); err != nil {
		t.Fatal(err)
	}

	files := 0
	err = filepath.WalkDir(ref, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(ref, path)
		want, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		got, err := os.ReadFile(filepath.Join(out, rel))
		if err != nil {
			t.Errorf("irrgen did not write %s: %v", rel, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: irrgen wrote %d bytes, the in-memory path %d, and they differ", rel, len(got), len(want))
		}
		files++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"journals", "final"} {
		if entries, _ := os.ReadDir(filepath.Join(ref, dir)); len(entries) == 0 {
			t.Errorf("the reference wrote nothing under %s/", dir)
		}
	}
	if files < 13+2 {
		t.Errorf("compared %d files, want the 13 dumps, as-rel.txt, routes.txt and more", files)
	}

	fromMRT, err := core.LoadRoutes(filepath.Join(out, "routes.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := bgpsim.WriteDump(&text, fromMRT); err != nil {
		t.Fatal(err)
	}
	routesTxt, err := os.ReadFile(filepath.Join(out, "routes.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(text.Bytes(), routesTxt) {
		t.Errorf("routes.mrt decodes to %d routes that differ from routes.txt", len(fromMRT))
	}
}
