// Package rpsl implements the lexical layer of the RPSL (RFC 2622):
// reading IRR dump files, splitting them into objects, folding continued
// attribute lines, stripping comments, and classifying objects.
//
// This layer is deliberately tolerant: IRR dumps in the wild contain
// out-of-place text, broken comma lists, and misplaced comments (the
// paper found 663 syntax errors). Lexical problems are recorded as
// diagnostics rather than aborting the parse, so one malformed object
// never loses the rest of a dump.
package rpsl

import (
	"strings"
)

// Attribute is one attribute of an RPSL object after folding: the
// lower-cased key and the logical value with continuation lines joined
// by a single space and comments stripped.
type Attribute struct {
	Key   string `json:"key"`
	Value string `json:"value"`
	// Line is the 1-based line number of the attribute's first line
	// within its source, for diagnostics.
	Line int `json:"line,omitempty"`
}

// Object is a raw RPSL object: an ordered attribute list plus
// convenience fields identifying it.
type Object struct {
	// Class is the key of the first attribute, lower-cased: "aut-num",
	// "route", "as-set", ...
	Class string `json:"class"`
	// Name is the value of the first attribute, upper-cased per RPSL's
	// case insensitivity for primary keys ("AS174", "AS-FOO", a prefix...).
	Name string `json:"name"`
	// Attrs holds all attributes in file order, including the first.
	Attrs []Attribute `json:"attrs"`
	// Source names the IRR the object came from (set by the reader).
	Source string `json:"source,omitempty"`
	// Line is the 1-based starting line within the dump file.
	Line int `json:"line,omitempty"`
}

// Get returns the value of the first attribute with the given key
// (lower-case) and whether it was present.
func (o *Object) Get(key string) (string, bool) {
	for _, a := range o.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// All returns the values of every attribute with the given key, in
// order. RPSL attributes such as import/export/members are multivalued.
func (o *Object) All(key string) []string {
	var out []string
	for _, a := range o.Attrs {
		if a.Key == key {
			out = append(out, a.Value)
		}
	}
	return out
}

// Has reports whether any attribute with the key exists.
func (o *Object) Has(key string) bool {
	_, ok := o.Get(key)
	return ok
}

// String renders the object back into RPSL text (one attribute per
// line). Long values are emitted on a single line; round-tripping of
// continuation layout is not attempted.
func (o *Object) String() string {
	var b strings.Builder
	for _, a := range o.Attrs {
		b.WriteString(a.Key)
		b.WriteString(":")
		if a.Value != "" {
			pad := 16 - len(a.Key) - 1
			if pad < 1 {
				pad = 1
			}
			b.WriteString(strings.Repeat(" ", pad))
			b.WriteString(a.Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}
