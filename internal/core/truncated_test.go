package core

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/telemetry"
)

var errDisk = errors.New("input/output error")

// bothPaths parses the dumps mk returns twice: each dump read whole and
// parsed as one chunk (the reference), and through the pipeline in
// small chunks on several workers. It requires the two IRs to be deeply
// equal, error order included, and returns the IR and what the pipeline
// counted as parse errors per registry.
func bothPaths(t *testing.T, mk func() []Dump) (*ir.IR, map[string]int64) {
	t.Helper()
	dumps := mk()
	in := make(chan parser.SeqChunk, len(dumps))
	for i, d := range dumps {
		text, err := io.ReadAll(d.R)
		in <- parser.SeqChunk{Chunk: parser.Chunk{Source: d.Name, DumpIndex: i, Text: text, FirstLine: 1}, Seq: i, Err: err}
	}
	close(in)
	whole := parser.Merge(parser.ParseChunks(in, 1, nil), nil)
	m := parser.NewPipelineMetrics(telemetry.NewRegistry("t"))
	par := ParseDumps(LoadOptions{Workers: 3, ChunkSize: 64, Stats: &parser.LoadStats{Metrics: m}}, mk()...)
	if !reflect.DeepEqual(whole.Errors, par.Errors) {
		t.Fatalf("errors differ:\none chunk a dump %v\npipeline         %v", whole.Errors, par.Errors)
	}
	if !reflect.DeepEqual(whole, par) {
		t.Fatal("pipeline IR differs from the one-chunk-a-dump IR")
	}
	return par, m.ParseErrors.Values()
}

// TestReadErrorIsRecorded cuts the first registry's dump short with a
// failing reader: what was read before the failure is parsed, the error
// is recorded as that dump's last parse error (kind "io") ahead of the
// next dump's, at any chunking, and it is counted.
func TestReadErrorIsRecorded(t *testing.T) {
	ripe := "aut-num: AS1\n\nstray text\n\naut-num: AS2\n\n" + strings.Repeat("aut-num: AS3\nas-name: THREE\n\n", 40)
	radb := "route: bad\norigin: AS1\n\naut-num: AS9\n"
	for _, after := range []int{0, 26, 185} {
		x, counted := bothPaths(t, func() []Dump {
			return []Dump{
				{Name: "RIPE", R: io.MultiReader(strings.NewReader(ripe[:after]), iotest.ErrReader(errDisk))},
				{Name: "RADB", R: strings.NewReader(radb)},
			}
		})
		var kinds []string
		for _, e := range x.Errors {
			kinds = append(kinds, e.Source+"/"+e.Kind)
		}
		want := []string{"RIPE/syntax", "RIPE/io", "RADB/syntax"}
		if after == 0 {
			want = want[1:] // failed before the stray line was read
		}
		if !reflect.DeepEqual(kinds, want) {
			t.Fatalf("after %d bytes: errors = %v, want %v", after, kinds, want)
		}
		if _, ok := x.AutNums[9]; !ok {
			t.Fatalf("after %d bytes: the dump behind the failed one was not read", after)
		}
		if _, ok := x.AutNums[3]; ok != (after == 185) {
			t.Fatalf("after %d bytes: AS3 present = %v", after, ok)
		}
		if got := counted["RIPE"]; got != int64(len(want)-1) {
			t.Fatalf("after %d bytes: parse_errors_total{RIPE} = %d, want %d", after, got, len(want)-1)
		}
	}
}

// TestOverlongLineCostsItsObject puts a 17 MiB members: line in the
// second of three objects: at any chunking the parse drops that object,
// records one syntax error naming the registry and the line, and keeps
// going.
func TestOverlongLineCostsItsObject(t *testing.T) {
	text := "as-set: AS-ONE\nmembers: AS1\n\nas-set: AS-TWO\ndescr: big\nmembers: " +
		strings.Repeat("AS65000, ", (17<<20)/9) + "AS1\nmnt-by: M\n\nas-set: AS-THREE\nmembers: AS3\n"
	x, counted := bothPaths(t, func() []Dump {
		return []Dump{{Name: "RIPE", R: strings.NewReader(text)}}
	})
	if len(x.AsSets) != 2 || x.AsSets["AS-ONE"] == nil || x.AsSets["AS-THREE"] == nil {
		t.Fatalf("as-sets = %v, want AS-ONE and AS-THREE", x.AsSets)
	}
	if len(x.Errors) != 1 || x.Errors[0].Source != "RIPE" || x.Errors[0].Kind != "syntax" ||
		!strings.Contains(x.Errors[0].Msg, "line 6 is longer than 16 MiB") {
		t.Fatalf("errors = %v, want one syntax error for RIPE naming line 6", x.Errors)
	}
	if counted["RIPE"] != 1 {
		t.Fatalf("parse_errors_total{RIPE} = %d, want 1", counted["RIPE"])
	}
}

// TestLoadDumpDirFailsOnReadError asserts a dump that cannot be read
// to its end fails the load instead of shortening it silently.
func TestLoadDumpDirFailsOnReadError(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "radb.db"), []byte("aut-num: AS1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A symlink to a directory opens, and fails at the first read.
	if err := os.Symlink(t.TempDir(), filepath.Join(dir, "ripe.db")); err != nil {
		t.Skip("no symlinks here:", err)
	}
	for _, opts := range []LoadOptions{{}, {Workers: 1}} {
		if _, _, err := LoadDumpDirOpts(dir, opts); err == nil || !strings.Contains(err.Error(), "RIPE") {
			t.Fatalf("LoadDumpDirOpts(%+v) error = %v, want a read error naming RIPE", opts, err)
		}
	}
}
