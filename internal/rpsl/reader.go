package rpsl

import (
	"bytes"
	"fmt"
	"slices"
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
// the strings an Object holds: one per attribute value, plus interned
// keys. An Object therefore never holds on to the text it was read
// from (a 256 KiB chunk of a dump). The Object itself and its Attrs
// slice belong to the reader and are reused by the next call to Next:
// a caller that keeps objects keeps copies (ReadAll does).
type Reader struct {
	text   []byte // what is left to read
	source string
	line   int
	diags  []Diagnostic

	keys map[string]string // key as spelled in the text -> lower-cased, valid key
	obj  Object            // the object Next returns; obj.Attrs is the object in progress
	val  []byte            // folded value of the attribute in progress
}

// NewTextReader creates a Reader over text, parsed where it lies; text
// must not change while the reader is in use. source labels objects and
// diagnostics (typically the IRR name, e.g. "RIPE"). Its first line is
// numbered firstLine: the ingestion pipeline hands each worker a chunk
// of a dump and keeps whole-file line numbers this way. A stream is
// read by parser.Splitter, which cuts it into such chunks.
func NewTextReader(text []byte, source string, firstLine int) *Reader {
	return &Reader{text: text, source: source, line: firstLine - 1}
}

// Diagnostics returns the problems encountered so far.
func (r *Reader) Diagnostics() []Diagnostic { return r.diags }

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
//
// The object is the reader's: the next call overwrites it and its
// Attrs slice. The strings in it are the caller's to keep.
func (r *Reader) Next() *Object {
	var (
		key     string // attribute in progress; "" until an object's first attribute line
		keyLine int
		skip    bool // after an over-long line: drop lines up to the next blank one
	)
	r.obj.Attrs, r.val = r.obj.Attrs[:0], r.val[:0]
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
			r.obj.Attrs, r.val = r.obj.Attrs[:0], r.val[:0]
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
	r.obj.Attrs = append(r.obj.Attrs, Attribute{Key: key, Value: string(r.val), Line: line})
	r.val = r.val[:0]
}

// finish ends the object in progress and its last attribute, and
// returns the reader's object.
func (r *Reader) finish(key string, line int) *Object {
	r.flush(key, line)
	first := r.obj.Attrs[0]
	name := first.Value
	if strings.IndexFunc(name, unicode.IsSpace) >= 0 {
		name = strings.Join(strings.Fields(name), " ")
	}
	r.obj.Class, r.obj.Name = first.Key, strings.ToUpper(name)
	r.obj.Source, r.obj.Line = r.source, first.Line
	return &r.obj
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

// ReadAll drains the reader and returns every object, each a copy
// that later calls to Next leave alone.
func (r *Reader) ReadAll() []*Object {
	var out []*Object
	for o := r.Next(); o != nil; o = r.Next() {
		c := *o
		c.Attrs = slices.Clone(o.Attrs)
		out = append(out, &c)
	}
	return out
}

// ParseObjects is a convenience wrapper that reads all objects from a
// string (used heavily by tests and examples). The objects are the
// caller's, as ReadAll's are.
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
