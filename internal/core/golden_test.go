package core

import (
	"reflect"
	"strings"
	"testing"

	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/render"
	"rpslyzer/internal/telemetry"
)

// TestGoldenParallelMatchesSequential pins the merge-determinism
// contract of the ingestion pipeline: over the full 13-registry
// synthetic universe, the parallel loader must produce an IR deeply
// equal to the sequential loader's — same priority order, same
// duplicate resolution, same route and error ordering.
func TestGoldenParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	sys, err := BuildSynthetic(Options{Seed: 7, ASes: 400, Collectors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteUniverse(sys, nil, dir); err != nil {
		t.Fatal(err)
	}

	seq, seqSizes, err := LoadDumpDirOpts(dir, LoadOptions{Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	// A small chunk size forces every dump to fan out across many
	// chunks, exercising reordering and cross-chunk duplicate merging.
	for _, workers := range []int{1, 3, 8} {
		m := parser.NewPipelineMetrics(telemetry.NewRegistry("golden"))
		par, parSizes, err := LoadDumpDirOpts(dir, LoadOptions{
			Workers:   workers,
			ChunkSize: 2 * 1024,
			Stats:     &parser.LoadStats{Metrics: m},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqSizes, parSizes) {
			t.Fatalf("workers=%d: dump sizes diverge", workers)
		}
		if !reflect.DeepEqual(seq, par) {
			describeIRDiff(t, workers, seq, par)
		}
		if m.BytesParsed.Value() == 0 || m.ObjectsParsed.Value() == 0 || m.ChunksParsed.Value() == 0 {
			t.Errorf("workers=%d: stats not threaded: bytes=%d objects=%d chunks=%d",
				workers, m.BytesParsed.Value(), m.ObjectsParsed.Value(), m.ChunksParsed.Value())
		}
	}

	// All 13 registries must be present, or the universe under test is
	// not the one the contract is about.
	if len(seq.Counts) != len(irrgen.IRRs) {
		t.Fatalf("universe covers %d registries, want %d", len(seq.Counts), len(irrgen.IRRs))
	}
}

// describeIRDiff reports which part of the IR diverged, to keep golden
// failures debuggable.
func describeIRDiff(t *testing.T, workers int, seq, par any) {
	t.Helper()
	sv, pv := reflect.ValueOf(seq).Elem(), reflect.ValueOf(par).Elem()
	for i := 0; i < sv.NumField(); i++ {
		name := sv.Type().Field(i).Name
		if !reflect.DeepEqual(sv.Field(i).Interface(), pv.Field(i).Interface()) {
			t.Errorf("workers=%d: IR.%s diverges between sequential and parallel load", workers, name)
		}
	}
	t.Fatalf("workers=%d: parallel IR != sequential IR", workers)
}

// TestGoldenRenderReparseFixedPoint asserts render.IR → reparse →
// render is a fixed point over the whole synthetic universe: the
// canonical text fully determines the IR.
func TestGoldenRenderReparseFixedPoint(t *testing.T) {
	sys, err := BuildSynthetic(Options{Seed: 8, ASes: 300})
	if err != nil {
		t.Fatal(err)
	}
	first := render.IR(sys.IR)

	var dumps []Dump
	for _, name := range irrgen.IRRs {
		if text, ok := first[name]; ok {
			dumps = append(dumps, Dump{Name: name, R: strings.NewReader(text)})
		}
	}
	reparsed := ParseDumpsParallel(LoadOptions{Workers: 4, ChunkSize: 4 * 1024}, dumps...)
	second := render.IR(reparsed)

	if len(first) != len(second) {
		t.Fatalf("render produced %d sources, reparse produced %d", len(first), len(second))
	}
	for name, text := range first {
		if second[name] != text {
			t.Errorf("render → reparse → render not a fixed point for %s", name)
		}
	}
}
