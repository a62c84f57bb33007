package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestWriteUniverseStreamMatchesInMemory holds the streaming
// generator to the in-memory one byte for byte: same seed and size
// must produce identical dump, relationship, and route files whether
// the corpus was materialized or streamed, and the streamed universe
// returns the same routes and ground truth.
func TestWriteUniverseStreamMatchesInMemory(t *testing.T) {
	opts := Options{Seed: 77, ASes: 150}
	const collectors = 3

	memDir := t.TempDir()
	sys, err := BuildSynthetic(opts)
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(collectors, opts.Seed)
	if err := WriteUniverse(sys, routes, memDir); err != nil {
		t.Fatal(err)
	}

	streamDir := t.TempDir()
	u, streamed, err := WriteUniverseStream(opts, collectors, opts.Seed, streamDir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, routes) {
		t.Errorf("streamed %d routes, in-memory collected %d, or they differ", len(streamed), len(routes))
	}
	if !reflect.DeepEqual(u.Profiles, sys.Universe.Profiles) || !reflect.DeepEqual(u.Topo.Order, sys.Topo.Order) {
		t.Error("the streamed universe's ground truth differs from the in-memory one's")
	}
	sizes := u.DumpSizes()

	memFiles, err := os.ReadDir(memDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(memFiles) == 0 {
		t.Fatal("in-memory write produced no files")
	}
	for _, e := range memFiles {
		want, err := os.ReadFile(filepath.Join(memDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(streamDir, e.Name()))
		if err != nil {
			t.Fatalf("streamed dir missing %s: %v", e.Name(), err)
		}
		if string(got) != string(want) {
			t.Errorf("%s: streamed output differs from in-memory output (%d vs %d bytes)",
				e.Name(), len(got), len(want))
		}
	}

	// The reported sizes must match the in-memory accounting too.
	for name, sz := range sys.Universe.DumpSizes() {
		if sizes[name] != sz {
			t.Errorf("%s: streamed size %d, in-memory %d", name, sizes[name], sz)
		}
	}
}
