package parser

import (
	"bytes"
	"io"
	"slices"

	"rpslyzer/internal/rpsl"
)

// Chunk is a contiguous run of complete RPSL object blocks cut from one
// dump. A chunk never splits an object: chunk boundaries fall only on
// blank lines (the object delimiter), so a per-chunk rpsl.Reader parses
// exactly the objects a whole-file read would produce for that span.
type Chunk struct {
	// Source names the IRR the chunk came from.
	Source string
	// DumpIndex is the position of the dump in the feed order; the
	// merge stage uses it to detect dump boundaries.
	DumpIndex int
	// Text is the chunk's bytes exactly as the dump has them, in a
	// buffer of the chunk's own.
	Text []byte
	// FirstLine is the 1-based line number of the chunk's first line
	// within the dump, so diagnostics keep whole-file line numbers.
	FirstLine int
}

// defaultChunkSize is the target chunk payload. Big enough that worker
// hand-off cost is negligible against parse cost, small enough that a
// dump fans out across every worker and in-flight memory stays bounded.
const defaultChunkSize = 256 * 1024

// Splitter streams a dump as a sequence of chunks without ever holding
// the whole file. It reads straight into a chunk's own buffer (the only
// copy a dump byte gets after read(2)), cuts after the buffer's last
// blank line and carries the tail over into the next chunk.
type Splitter struct {
	r         io.Reader
	source    string
	dumpIndex int
	target    int

	carry []byte // read past the previous chunk's cut
	line  int    // 1-based line number of carry's first byte
	skip  bool   // inside a line past rpsl.MaxLine: drop bytes up to its '\n'
	done  bool
	err   error
}

// NewSplitter creates a Splitter over one dump. target is the chunk
// size in bytes; target <= 0 uses the default.
func NewSplitter(r io.Reader, source string, dumpIndex, target int) *Splitter {
	if target <= 0 {
		target = defaultChunkSize
	}
	return &Splitter{r: r, source: source, dumpIndex: dumpIndex, target: target, line: 1}
}

// Next returns the next chunk, or ok=false at end of input. Every chunk
// but the last ends just after a blank line; the last is emitted even
// when the dump's final object has no trailing blank line. An object
// larger than the target grows its chunk; a line larger than
// rpsl.MaxLine is cut down to MaxLine+1 bytes, by which rpsl.Reader
// knows it.
func (s *Splitter) Next() (Chunk, bool) {
	if s.done {
		return Chunk{}, false
	}
	buf := make([]byte, len(s.carry), len(s.carry)+s.target)
	copy(buf, s.carry)
	for {
		old := len(buf)
		n, err := io.ReadFull(s.r, buf[old:cap(buf)])
		fresh := buf[old : old+n]
		if s.skip {
			if i := bytes.IndexByte(fresh, '\n'); i >= 0 {
				fresh, s.skip = fresh[i:], false
			} else {
				fresh = nil
			}
		}
		buf = append(buf[:old], fresh...)
		cut := len(buf)
		if err != nil {
			// End of input or a failed read: this is the last chunk.
			s.done = true
			if err != io.EOF && err != io.ErrUnexpectedEOF {
				s.err = err
			}
		} else if s.skip {
			continue
		} else if cut = lastBlankLine(buf); cut == 0 {
			if nl := bytes.LastIndexByte(buf, '\n'); len(buf)-nl-1 > rpsl.MaxLine {
				buf, s.skip = buf[:nl+1+rpsl.MaxLine+1], true
			}
			if cap(buf)-len(buf) < s.target {
				buf = slices.Grow(buf, max(len(buf), s.target))
			}
			continue
		}
		c := Chunk{Source: s.source, DumpIndex: s.dumpIndex, Text: buf[:cut:cut], FirstLine: s.line}
		s.carry = append(s.carry[:0], buf[cut:]...)
		s.line += bytes.Count(c.Text, []byte{'\n'})
		return c, cut > 0
	}
}

// Err returns the read error that cut the dump short, if one did. The
// bytes read before it have been emitted as the last chunk.
func (s *Splitter) Err() error { return s.err }

// lastBlankLine returns the offset just past the last blank line of
// buf, or 0 if it has none. Blank here is ASCII whitespace only, less
// than what rpsl.Reader takes for a delimiter: missing a blank line
// merely delays a cut, while seeing one that is none would split an
// object in half.
func lastBlankLine(buf []byte) int {
	for end := bytes.LastIndexByte(buf, '\n'); end >= 0; {
		start := bytes.LastIndexByte(buf[:end], '\n')
		if len(bytes.Trim(buf[start+1:end], " \t\r\v\f")) == 0 {
			return end + 1
		}
		end = start
	}
	return 0
}
