// Package parser implements the RPSL policy grammar (RFC 2622, RFC
// 4012): import/export rules with peerings, actions and filters,
// Structured Policies (refine/except), composite policy filters,
// AS-path regular expressions, prefix sets with range operators, and
// the decomposition of all routing-related object classes into the IR.
//
// The parser is tolerant by design: unparseable constructs become
// ir.FilterUnsupported nodes or recorded ir.ParseErrors rather than
// hard failures, so one bad rule never loses an object and one bad
// object never loses a dump.
package parser

import (
	"fmt"
	"strings"
)

// tokKind enumerates lexical token kinds of the policy grammar.
type tokKind uint8

const (
	tokWord  tokKind = iota // identifiers, keywords, numbers, prefixes
	tokPunct                // one of { } ( ) ; ,
	tokRegex                // the content between < and >
	tokEOF
)

// token is one lexical token.
type token struct {
	kind tokKind
	text string
}

func (t token) isPunct(p string) bool { return t.kind == tokPunct && t.text == p }

// isKeyword reports case-insensitive equality with an RPSL keyword.
func (t token) isKeyword(kw string) bool {
	return t.kind == tokWord && strings.EqualFold(t.text, kw)
}

// lex tokenizes a policy attribute value into buf, from its start, and
// returns the grown buffer. '<' starts an AS-path regex captured
// verbatim until the matching '>'. Braces, parentheses, semicolons and
// commas are punctuation; everything else groups into words split on
// whitespace and punctuation. A token's text is a substring of s.
func lex(buf []token, s string) ([]token, error) {
	toks := buf[:0]
	i := 0
	n := len(s)
	for i < n {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			i++
		case c == '<':
			j := strings.IndexByte(s[i+1:], '>')
			if j < 0 {
				return toks, fmt.Errorf("parser: unterminated AS-path regex")
			}
			toks = append(toks, token{tokRegex, s[i+1 : i+1+j]})
			i += j + 2
		case c == '{' || c == '}' || c == '(' || c == ')' || c == ';' || c == ',':
			toks = append(toks, token{tokPunct, string(c)})
			i++
		default:
			j := i
			for j < n {
				d := s[j]
				if d == ' ' || d == '\t' || d == '\r' || d == '\n' ||
					d == '{' || d == '}' || d == '(' || d == ')' ||
					d == ';' || d == ',' || d == '<' {
					break
				}
				j++
			}
			toks = append(toks, token{tokWord, s[i:j]})
			i = j
		}
	}
	toks = append(toks, token{kind: tokEOF})
	return toks, nil
}

// cursor walks a token slice. Its buffer is reused by each lex, so a
// cursor that parses many values (the builder's) allocates its tokens
// once; nothing parsed from it keeps a sub-slice of the buffer, only
// the tokens' text.
type cursor struct {
	toks []token
	pos  int
}

// lex tokenizes s into the cursor's buffer and rewinds to its start.
func (c *cursor) lex(s string) error {
	toks, err := lex(c.toks, s)
	c.toks, c.pos = toks, 0
	return err
}

func (c *cursor) peek() token {
	if c.pos >= len(c.toks) {
		return token{kind: tokEOF}
	}
	return c.toks[c.pos]
}

func (c *cursor) next() token {
	t := c.peek()
	if c.pos < len(c.toks) {
		c.pos++
	}
	return t
}

func (c *cursor) atEOF() bool { return c.peek().kind == tokEOF }

// expectPunct consumes the punctuation or errors.
func (c *cursor) expectPunct(p string) error {
	if !c.peek().isPunct(p) {
		return fmt.Errorf("parser: expected %q, found %q", p, c.peek().text)
	}
	c.next()
	return nil
}
