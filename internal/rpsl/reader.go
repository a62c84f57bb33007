package rpsl

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode"
)

// Diagnostic records a lexical problem found while reading a dump. The
// reader never aborts on malformed input; it records what it skipped.
type Diagnostic struct {
	Source string `json:"source,omitempty"`
	Line   int    `json:"line"`
	Msg    string `json:"msg"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s", d.Source, d.Line, d.Msg)
}

var newline = []byte{'\n'}

// MaxLine is the longest physical line a dump may contain, in bytes.
// Dumps carry enormous folded values (as-sets with tens of thousands of
// members), but a "line" past this is a corrupt file.
const MaxLine = 16 << 20

// Reader splits an IRR dump into RPSL objects. Objects are separated by
// one or more blank lines; attribute lines are "key: value"; a line
// beginning with whitespace or '+' continues the previous attribute;
// lines starting with '%' or '#' are file-level comments.
//
// The reader walks text already in memory and copies out of it only
// what an Object keeps: one string per attribute value, one exact-size
// attribute slice per object, interned keys. An Object therefore never
// holds on to the text it was read from (a 256 KiB chunk of a dump).
type Reader struct {
	text   []byte // what is left to read
	source string
	line   int
	diags  []Diagnostic
	err    error

	keys  map[string]string // key as spelled in the text -> lower-cased, valid key
	attrs []Attribute       // attributes of the object in progress
	val   []byte            // folded value of the attribute in progress
}

// NewReader creates a Reader over all of r, read to its end first (the
// streaming path is parser.Splitter). source labels objects and
// diagnostics (typically the IRR name, e.g. "RIPE").
func NewReader(r io.Reader, source string) *Reader {
	text, err := io.ReadAll(r)
	rd := NewTextReader(text, source, 1)
	rd.err = err
	return rd
}

// NewTextReader creates a Reader over text, parsed where it lies; text
// must not change while the reader is in use. Its first line is
// numbered firstLine: the ingestion pipeline hands each worker a chunk
// of a dump and keeps whole-file line numbers this way.
func NewTextReader(text []byte, source string, firstLine int) *Reader {
	return &Reader{text: text, source: source, line: firstLine - 1}
}

// Source returns the label the reader was created with.
func (r *Reader) Source() string { return r.source }

// Diagnostics returns the problems encountered so far.
func (r *Reader) Diagnostics() []Diagnostic { return r.diags }

// Err returns the error that cut NewReader's input short, if one did.
func (r *Reader) Err() error { return r.err }

func (r *Reader) addDiag(line int, format string, args ...any) {
	r.diags = append(r.diags, Diagnostic{
		Source: r.source,
		Line:   line,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// Next returns the next object in the dump, or nil when the input is
// exhausted. Malformed lines are skipped with a diagnostic; a line over
// MaxLine costs the object it is in.
func (r *Reader) Next() *Object {
	var (
		key     string // attribute in progress; "" until an object's first attribute line
		keyLine int
		skip    bool // after an over-long line: drop lines up to the next blank one
	)
	r.attrs, r.val = r.attrs[:0], r.val[:0]
	for len(r.text) > 0 {
		var raw []byte
		raw, r.text, _ = bytes.Cut(r.text, newline)
		r.line++
		line := bytes.TrimRight(raw, " \t\r")
		blank := len(bytes.TrimSpace(line)) == 0
		switch {
		case len(raw) > MaxLine:
			r.addDiag(r.line, "line %d is longer than %d MiB: the object it is in is skipped", r.line, MaxLine>>20)
			key, skip = "", true
			r.attrs, r.val = r.attrs[:0], r.val[:0]
		case skip:
			skip = !blank
		case blank:
			// End of object (if one is in progress).
			if key != "" {
				return r.finish(key, keyLine)
			}
		case line[0] == '%' || line[0] == '#':
			// File-level comment line.
		case line[0] == ' ' || line[0] == '\t' || line[0] == '+':
			// Continuation line.
			if key == "" {
				r.addDiag(r.line, "continuation line with no preceding attribute: %q", truncate(line, 40))
				continue
			}
			if line[0] == '+' {
				line = line[1:]
			}
			r.fold(line)
		default:
			// Attribute line: "key: value".
			colon := bytes.IndexByte(line, ':')
			k := r.internKey(line[:max(colon, 0)])
			if k == "" {
				r.addDiag(r.line, "out-of-place text skipped: %q", truncate(line, 40))
				continue
			}
			if key != "" {
				r.flush(key, keyLine)
			}
			key, keyLine = k, r.line
			r.fold(line[colon+1:])
		}
	}
	if key != "" {
		return r.finish(key, keyLine)
	}
	return nil
}

// fold appends one physical line's share of the value in progress:
// comment stripped, trimmed, joined to what came before by one space.
func (r *Reader) fold(part []byte) {
	if i := bytes.IndexByte(part, '#'); i >= 0 {
		part = part[:i]
	}
	if part = bytes.TrimSpace(part); len(part) == 0 {
		return
	}
	if len(r.val) > 0 {
		r.val = append(r.val, ' ')
	}
	r.val = append(r.val, part...)
}

// flush ends the attribute in progress; string(r.val) copies its value
// out of the text.
func (r *Reader) flush(key string, line int) {
	r.attrs = append(r.attrs, Attribute{Key: key, Value: string(r.val), Line: line})
	r.val = r.val[:0]
}

// finish ends the object in progress and its last attribute.
func (r *Reader) finish(key string, line int) *Object {
	r.flush(key, line)
	attrs := make([]Attribute, len(r.attrs))
	copy(attrs, r.attrs)
	name := attrs[0].Value
	if strings.IndexFunc(name, unicode.IsSpace) >= 0 {
		name = strings.Join(strings.Fields(name), " ")
	}
	return &Object{
		Class:  attrs[0].Key,
		Name:   strings.ToUpper(name),
		Attrs:  attrs,
		Source: r.source,
		Line:   attrs[0].Line,
	}
}

// internKey returns the lower-cased attribute key for the text before
// an attribute line's colon, or "" if that is no key. A dump spells a
// few dozen keys a million times: each is checked and allocated once.
func (r *Reader) internKey(raw []byte) string {
	if k, ok := r.keys[string(raw)]; ok {
		return k
	}
	s := string(raw)
	if !validKey(s) {
		return ""
	}
	if r.keys == nil {
		r.keys = make(map[string]string)
	}
	k := strings.ToLower(strings.TrimSpace(s))
	r.keys[s] = k
	return k
}

// ReadAll drains the reader and returns every object.
func (r *Reader) ReadAll() []*Object {
	var out []*Object
	for o := r.Next(); o != nil; o = r.Next() {
		out = append(out, o)
	}
	return out
}

// ParseObjects is a convenience wrapper that reads all objects from a
// string (used heavily by tests and examples).
func ParseObjects(text, source string) ([]*Object, []Diagnostic) {
	r := NewTextReader([]byte(text), source, 1)
	objs := r.ReadAll()
	return objs, r.Diagnostics()
}

// validKey checks an attribute key: letters, digits, '-', '_' only.
// RPSL attribute names never contain spaces; rejecting other shapes is
// how out-of-place text (e.g. a stray sentence with a colon) gets caught.
func validKey(s string) bool {
	s = strings.TrimSpace(s)
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '*':
		default:
			return false
		}
	}
	return true
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
