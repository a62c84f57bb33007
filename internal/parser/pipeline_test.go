package parser

import (
	"io"
	"reflect"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/rpsl"
	"rpslyzer/internal/telemetry"
)

// splitAll drains a splitter over text with the given chunk target.
func splitAll(t *testing.T, text string, target int) []Chunk {
	t.Helper()
	sp := NewSplitter(strings.NewReader(text), "T", 0, target)
	var chunks []Chunk
	for c, ok := sp.Next(); ok; c, ok = sp.Next() {
		chunks = append(chunks, c)
	}
	if err := sp.Err(); err != nil {
		t.Fatalf("splitter error: %v", err)
	}
	return chunks
}

// parseChunked parses text as the loader does, cut into chunks of the
// given target, each through ParseChunk, and merged in order.
func parseChunked(t *testing.T, text string, target int) *ir.IR {
	t.Helper()
	m := newMerger()
	for i, c := range splitAll(t, text, target) {
		m.add(ParseChunk(c, i, 0))
	}
	return m.finish()
}

// TestSplitterNeverSplitsObjects asserts chunk boundaries fall only on
// blank lines: the chunks reassemble to the text, and parsing them one
// by one reproduces the parse of the whole text as one chunk, across
// awkward dump shapes and pathologically small chunk targets.
func TestSplitterNeverSplitsObjects(t *testing.T) {
	cases := map[string]string{
		"plain":                  "aut-num: AS1\nas-name: ONE\n\naut-num: AS2\n\nas-set: AS-X\nmembers: AS1, AS2\n",
		"no-trailing-blank-line": "aut-num: AS1\n\naut-num: AS2\nas-name: TWO",
		"crlf":                   "aut-num: AS1\r\nas-name: ONE\r\n\r\naut-num: AS2\r\n",
		"continuation-lines":     "as-set: AS-Y\nmembers: AS1,\n AS2,\n+AS3\n\naut-num: AS4\n",
		"blank-with-whitespace":  "aut-num: AS1\n \t\naut-num: AS2\n",
		"comment-runs":           "% header\n% more header\n\naut-num: AS1\n# inline comment line\nas-name: ONE\n\n% trailer\n",
		"truncated-object":       "aut-num: AS1\nas-name\n\nroute: not-a-prefix\norigin: AS1\n\naut-num: AS2\n",
		"stray-continuation":     "\n  dangling continuation\n\naut-num: AS3\n",
		"many-blank-lines":       "\n\n\naut-num: AS1\n\n\n\naut-num: AS2\n\n\n",
		"empty":                  "",
		"only-comments":          "% nothing\n% here\n",
	}
	for name, text := range cases {
		t.Run(name, func(t *testing.T) {
			want := ParseText(text, "T")
			for _, target := range []int{1, 7, 64, 1 << 20} {
				// Chunks must concatenate back to the text, byte for byte.
				var rejoined strings.Builder
				for _, c := range splitAll(t, text, target) {
					rejoined.Write(c.Text)
				}
				if rejoined.String() != text {
					t.Fatalf("target=%d: chunks do not reassemble input:\n%q\nvs\n%q",
						target, rejoined.String(), text)
				}
				got := parseChunked(t, text, target)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("target=%d: chunked parse diverges from the one-chunk parse", target)
				}
			}
		})
	}
}

// TestSplitterLineNumbers asserts chunk line offsets keep diagnostics
// at whole-file line numbers.
func TestSplitterLineNumbers(t *testing.T) {
	text := "aut-num: AS1\n\naut-num: AS2\n\n  stray text line 5\n\naut-num: AS3\n"
	var diags []rpsl.Diagnostic
	for _, c := range splitAll(t, text, 1) {
		r := rpsl.NewTextReader(c.Text, c.Source, c.FirstLine)
		for obj := r.Next(); obj != nil; obj = r.Next() {
		}
		diags = append(diags, r.Diagnostics()...)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want exactly one", diags)
	}
	if diags[0].Line != 5 {
		t.Errorf("diagnostic line = %d, want 5 (whole-file numbering)", diags[0].Line)
	}
}

// TestParseChunksPool runs the worker pool over a generated chunk
// stream and checks every chunk comes back exactly once with stats
// accounted.
func TestParseChunksPool(t *testing.T) {
	var texts []string
	for i := 0; i < 40; i++ {
		texts = append(texts, "aut-num: AS"+string(rune('1'+i%9))+"\n\n")
	}
	in := make(chan SeqChunk)
	go func() {
		defer close(in)
		for i, text := range texts {
			in <- SeqChunk{
				Chunk: Chunk{Source: "T", Text: []byte(text), FirstLine: 1},
				Seq:   i,
			}
		}
	}()
	m := NewPipelineMetrics(telemetry.NewRegistry("pool"))
	stats := &LoadStats{Metrics: m}
	seen := make(map[int]bool)
	totalObjects := 0
	for res := range ParseChunks(in, 4, stats) {
		if seen[res.Seq] {
			t.Fatalf("chunk %d delivered twice", res.Seq)
		}
		seen[res.Seq] = true
		totalObjects += res.Objects
	}
	if len(seen) != len(texts) {
		t.Fatalf("delivered %d chunks, want %d", len(seen), len(texts))
	}
	if totalObjects != len(texts) {
		t.Fatalf("parsed %d objects, want %d", totalObjects, len(texts))
	}
	n := int64(len(texts))
	if m.ObjectsParsed.Value() != n || m.ChunksParsed.Value() != n || m.BytesParsed.Value() == 0 || len(m.ParseErrors.Values()) != 0 {
		t.Fatalf("metrics = bytes:%d objects:%d chunks:%d errors:%v", m.BytesParsed.Value(),
			m.ObjectsParsed.Value(), m.ChunksParsed.Value(), m.ParseErrors.Values())
	}
}

// TestParseChunkErrorsStayOrdered asserts a chunk's parse errors keep
// encounter order and its reader diagnostics are delivered separately.
func TestParseChunkErrorsStayOrdered(t *testing.T) {
	text := "route: bad1\norigin: AS1\n\nstray line\n\nroute: bad2\norigin: AS2\n"
	res := ParseChunk(Chunk{Source: "T", Text: []byte(text), FirstLine: 1}, 0, 0)
	if len(res.IR.Errors) != 2 {
		t.Fatalf("parse errors = %v, want 2", res.IR.Errors)
	}
	if !strings.Contains(res.IR.Errors[0].Msg, "bad route prefix") ||
		!strings.Contains(res.IR.Errors[1].Msg, "bad route prefix") {
		t.Errorf("unexpected parse errors: %v", res.IR.Errors)
	}
	if len(res.Diags) != 1 || !strings.Contains(res.Diags[0].Msg, "out-of-place text") {
		t.Errorf("diags = %v, want one out-of-place text diagnostic", res.Diags)
	}
}

// TestSplitterCutsAtBlankLines asserts every chunk but the last ends
// just after a blank line and starts at the right line, at every target.
func TestSplitterCutsAtBlankLines(t *testing.T) {
	text := strings.Repeat("aut-num: AS1\nas-name: ONE\n\nroute: 10.0.0.0/8\norigin: AS1\n \t\r\n", 50) + "as-set: AS-LAST"
	for _, target := range []int{1, 7, 64, 300, 1 << 20} {
		line, read := 1, 0
		for _, c := range splitAll(t, text, target) {
			if c.FirstLine != line {
				t.Fatalf("target %d: chunk starts at line %d, want %d", target, c.FirstLine, line)
			}
			line += strings.Count(string(c.Text), "\n")
			read += len(c.Text)
			if read < len(text) && lastBlankLine(c.Text) != len(c.Text) {
				t.Fatalf("target %d: chunk does not end on a blank line: %q", target, c.Text)
			}
		}
	}
}

// repeatReader yields n copies of the byte c.
type repeatReader struct {
	c byte
	n int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = r.c
	}
	r.n -= len(p)
	return len(p), nil
}

// TestSplitterBoundsAnOverlongLine streams a 40 MiB line between two
// objects: the chunks carry no more than rpsl.MaxLine+1 bytes of it,
// the object it is in is dropped with one diagnostic naming the line,
// and parsing carries on at the next blank line.
func TestSplitterBoundsAnOverlongLine(t *testing.T) {
	sp := NewSplitter(io.MultiReader(
		strings.NewReader("aut-num: AS1\n\nas-set: AS-BIG\nmembers: "),
		&repeatReader{'A', 40 << 20},
		strings.NewReader("\nmnt-by: M\n\naut-num: AS2\n"),
	), "T", 0, 0)
	total := 0
	var names []string
	var diags []rpsl.Diagnostic
	for c, ok := sp.Next(); ok; c, ok = sp.Next() {
		total += len(c.Text)
		r := rpsl.NewTextReader(c.Text, c.Source, c.FirstLine)
		for obj := r.Next(); obj != nil; obj = r.Next() {
			names = append(names, obj.Name)
		}
		diags = append(diags, r.Diagnostics()...)
	}
	if max := rpsl.MaxLine + 1 + 100; total > max || sp.Err() != nil {
		t.Fatalf("chunks carry %d bytes (err %v), want at most %d", total, sp.Err(), max)
	}
	if !reflect.DeepEqual(names, []string{"AS1", "AS2"}) {
		t.Fatalf("objects = %v, want AS1 and AS2", names)
	}
	if len(diags) != 1 || diags[0].Line != 4 || !strings.Contains(diags[0].Msg, "line 4 is longer than 16 MiB") {
		t.Fatalf("diagnostics = %v, want one naming line 4", diags)
	}
}
