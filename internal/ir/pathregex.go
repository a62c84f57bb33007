package ir

import (
	"fmt"
	"strings"
)

// PathRegex is the AST of an AS-path regular expression (RFC 2622
// section 5.4: <as-path regexp>). Matching is implemented by
// internal/asregex using the symbolic approach from the paper's
// Appendix B.
type PathRegex struct {
	// Root is the top-level node.
	Root *PathNode `json:"root"`
	// AnchorBegin and AnchorEnd record ^ / $ anchors.
	AnchorBegin bool `json:"anchor_begin,omitempty"`
	AnchorEnd   bool `json:"anchor_end,omitempty"`
	// Raw preserves the source text between < and >.
	Raw string `json:"raw,omitempty"`
}

// String renders the regex source.
func (r *PathRegex) String() string {
	if r == nil {
		return ""
	}
	if r.Raw != "" {
		return r.Raw
	}
	var b strings.Builder
	if r.AnchorBegin {
		b.WriteString("^")
	}
	if r.Root != nil {
		b.WriteString(r.Root.String())
	}
	if r.AnchorEnd {
		b.WriteString("$")
	}
	return b.String()
}

// PathNodeKind discriminates PathNode.
type PathNodeKind uint8

const (
	// PathToken is a leaf matching one AS in a path.
	PathToken PathNodeKind = iota
	// PathConcat concatenates children.
	PathConcat
	// PathAlt alternates children (|).
	PathAlt
	// PathRepeat repeats its single child Min..Max times (Max -1 means
	// unbounded). Same marks the ~ variant, which requires every
	// repetition to match the same AS (RFC 2622: ~* and ~+).
	PathRepeat
)

var pathNodeKindNames = [...]string{"token", "concat", "alt", "repeat"}

// String renders the kind.
func (k PathNodeKind) String() string {
	if int(k) < len(pathNodeKindNames) {
		return pathNodeKindNames[k]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (k PathNodeKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PathNodeKind) UnmarshalText(b []byte) error {
	for i, n := range pathNodeKindNames {
		if n == string(b) {
			*k = PathNodeKind(i)
			return nil
		}
	}
	return fmt.Errorf("ir: bad path node kind %q", b)
}

// PathNode is a node of the AS-path regex AST.
type PathNode struct {
	Kind     PathNodeKind `json:"kind"`
	Children []*PathNode  `json:"children,omitempty"`
	// Min, Max, Same describe PathRepeat.
	Min  int  `json:"min,omitempty"`
	Max  int  `json:"max,omitempty"` // -1 = unbounded
	Same bool `json:"same,omitempty"`
	// Term is set for PathToken leaves.
	Term *PathTerm `json:"term,omitempty"`
}

// String renders the node in regex syntax.
func (n *PathNode) String() string {
	if n == nil {
		return ""
	}
	switch n.Kind {
	case PathToken:
		return n.Term.String()
	case PathConcat:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return strings.Join(parts, " ")
	case PathAlt:
		parts := make([]string, len(n.Children))
		for i, c := range n.Children {
			parts[i] = c.String()
		}
		return "(" + strings.Join(parts, "|") + ")"
	case PathRepeat:
		op := ""
		switch {
		case n.Min == 0 && n.Max == -1:
			op = "*"
		case n.Min == 1 && n.Max == -1:
			op = "+"
		case n.Min == 0 && n.Max == 1:
			op = "?"
		default:
			op = fmt.Sprintf("{%d,%d}", n.Min, n.Max)
		}
		if n.Same {
			op = "~" + op
		}
		child := ""
		if len(n.Children) == 1 {
			child = n.Children[0].String()
		}
		return child + op
	}
	return "?"
}

// PathTermKind discriminates AS tokens within a path regex.
type PathTermKind uint8

const (
	// PathASN matches one specific AS number.
	PathASN PathTermKind = iota
	// PathASRange matches an AS number in [ASN, ASNHi] (the "ASN range"
	// construct the paper lists as future work; supported here).
	PathASRange
	// PathSet matches any member of an as-set.
	PathSet
	// PathWildcard is '.', matching any AS.
	PathWildcard
	// PathPeerAS matches the dynamic peer AS.
	PathPeerAS
	// PathClass is a character-class-like set [ ... ] or [^ ... ] of
	// terms.
	PathClass
)

var pathTermKindNames = [...]string{"asn", "asn-range", "as-set", "wildcard", "peer-as", "class"}

// String renders the kind.
func (k PathTermKind) String() string {
	if int(k) < len(pathTermKindNames) {
		return pathTermKindNames[k]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (k PathTermKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PathTermKind) UnmarshalText(b []byte) error {
	for i, n := range pathTermKindNames {
		if n == string(b) {
			*k = PathTermKind(i)
			return nil
		}
	}
	return fmt.Errorf("ir: bad path term kind %q", b)
}

// PathTerm is one AS token: a specific ASN, an ASN range, an as-set,
// the wildcard, PeerAS, or a class of terms.
type PathTerm struct {
	Kind    PathTermKind `json:"kind"`
	ASN     ASN          `json:"asn,omitempty"`
	ASNHi   ASN          `json:"asn_hi,omitempty"`
	Name    string       `json:"name,omitempty"`
	Negated bool         `json:"negated,omitempty"`
	Elems   []*PathTerm  `json:"elems,omitempty"`
}

// String renders the term in regex syntax.
func (t *PathTerm) String() string {
	if t == nil {
		return "?"
	}
	switch t.Kind {
	case PathASN:
		return t.ASN.String()
	case PathASRange:
		return t.ASN.String() + "-" + t.ASNHi.String()
	case PathSet:
		return t.Name
	case PathWildcard:
		return "."
	case PathPeerAS:
		return "PeerAS"
	case PathClass:
		var b strings.Builder
		b.WriteString("[")
		if t.Negated {
			b.WriteString("^")
		}
		for i, e := range t.Elems {
			if i > 0 {
				b.WriteString(" ")
			}
			b.WriteString(e.String())
		}
		b.WriteString("]")
		return b.String()
	}
	return "?"
}

// WalkNodes visits every node of the regex in pre-order: a node, then
// its children in order. A nil regex visits nothing.
func (r *PathRegex) WalkNodes(visit func(*PathNode)) {
	if r != nil {
		r.Root.walk(visit)
	}
}

func (n *PathNode) walk(visit func(*PathNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.walk(visit)
	}
}

// WalkTerms visits every term in the regex in WalkNodes order, a class
// before its elements, used to collect referenced as-sets.
func (r *PathRegex) WalkTerms(visit func(*PathTerm)) {
	r.WalkNodes(func(n *PathNode) { n.Term.walk(visit) })
}

func (t *PathTerm) walk(visit func(*PathTerm)) {
	if t == nil {
		return
	}
	visit(t)
	for _, e := range t.Elems {
		e.walk(visit)
	}
}
