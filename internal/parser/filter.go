package parser

import (
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// ParseFilter parses a complete policy filter expression (RFC 2622
// section 5.4) from text. Unparseable sub-expressions degrade to
// ir.FilterUnsupported nodes; a non-nil error is returned only when
// the text cannot be tokenized at all.
func ParseFilter(s string) (*ir.Filter, error) { return parseFilter(&cursor{}, s) }

// parseFilter is ParseFilter lexing into c's buffer.
func parseFilter(c *cursor, s string) (*ir.Filter, error) {
	if err := c.lex(s); err != nil {
		return nil, err
	}
	f := parseFilterExpr(c)
	if !c.atEOF() {
		return &ir.Filter{Kind: ir.FilterUnsupported, Raw: s}, nil
	}
	return f, nil
}

// filterStopper reports whether a token terminates a filter expression
// at the current nesting level: end of factor, end of policy term, or a
// structured-policy operator.
func filterStopper(t token) bool {
	switch {
	case t.kind == tokEOF:
		return true
	case t.isPunct(";"), t.isPunct("}"), t.isPunct(")"):
		return true
	case t.isKeyword("except"), t.isKeyword("refine"):
		return true
	case t.isKeyword("from"), t.isKeyword("to"):
		return true
	}
	return false
}

// parseFilterExpr parses with precedence NOT > AND > OR, where OR may
// be implicit (juxtaposition of two filters means their union).
func parseFilterExpr(c *cursor) *ir.Filter {
	left := parseFilterAnd(c)
	for {
		t := c.peek()
		if t.isKeyword("or") {
			c.next()
			right := parseFilterAnd(c)
			left = &ir.Filter{Kind: ir.FilterOr, Left: left, Right: right}
			continue
		}
		// Implicit OR: another primary begins here.
		if !filterStopper(t) && !t.isKeyword("and") {
			right := parseFilterAnd(c)
			left = &ir.Filter{Kind: ir.FilterOr, Left: left, Right: right}
			continue
		}
		return left
	}
}

func parseFilterAnd(c *cursor) *ir.Filter {
	left := parseFilterNot(c)
	for c.peek().isKeyword("and") {
		c.next()
		right := parseFilterNot(c)
		left = &ir.Filter{Kind: ir.FilterAnd, Left: left, Right: right}
	}
	return left
}

func parseFilterNot(c *cursor) *ir.Filter {
	if c.peek().isKeyword("not") {
		c.next()
		inner := parseFilterNot(c)
		if inner.Kind == ir.FilterAny {
			return &ir.Filter{Kind: ir.FilterNone}
		}
		return &ir.Filter{Kind: ir.FilterNot, Left: inner}
	}
	return parseFilterPrimary(c)
}

func parseFilterPrimary(c *cursor) *ir.Filter {
	t := c.peek()
	switch {
	case t.kind == tokRegex:
		c.next()
		re, err := ParsePathRegex(t.text)
		if err != nil {
			return &ir.Filter{Kind: ir.FilterUnsupported, Raw: "<" + t.text + ">"}
		}
		return &ir.Filter{Kind: ir.FilterPathRegex, Regex: re}
	case t.isPunct("("):
		c.next()
		inner := parseFilterExpr(c)
		if err := c.expectPunct(")"); err != nil {
			return &ir.Filter{Kind: ir.FilterUnsupported, Raw: "(" + inner.String()}
		}
		return inner
	case t.isPunct("{"):
		return parsePrefixSet(c)
	case t.kind == tokWord:
		return parseFilterWord(c)
	}
	// Anything else (stray punctuation) is unsupported; consume one
	// token to guarantee progress.
	c.next()
	return &ir.Filter{Kind: ir.FilterUnsupported, Raw: t.text}
}

// parsePrefixSet parses "{ p1, p2, ... }" with an optional trailing
// range operator. RFC 2622 allows an operator after the closing brace;
// the paper notes RPSLyzer does not interpret that construct (2 rules
// in the wild), so it degrades to FilterUnsupported here too.
func parsePrefixSet(c *cursor) *ir.Filter {
	c.next() // consume '{'
	var prefixes []prefix.Range
	bad := false
	var rawParts []string
	for {
		t := c.peek()
		if t.kind == tokEOF {
			bad = true
			break
		}
		if t.isPunct("}") {
			c.next()
			break
		}
		if t.isPunct(",") || t.isPunct(";") {
			c.next()
			continue
		}
		c.next()
		rawParts = append(rawParts, t.text)
		r, err := prefix.ParseRange(t.text)
		if err != nil {
			bad = true
			continue
		}
		prefixes = append(prefixes, r)
	}
	// Trailing range operator after '}' is the unsupported construct.
	if t := c.peek(); t.kind == tokWord && strings.HasPrefix(t.text, "^") {
		c.next()
		return &ir.Filter{Kind: ir.FilterUnsupported,
			Raw: "{" + strings.Join(rawParts, ", ") + "}" + t.text}
	}
	if bad {
		return &ir.Filter{Kind: ir.FilterUnsupported,
			Raw: "{" + strings.Join(rawParts, ", ") + "}"}
	}
	return &ir.Filter{Kind: ir.FilterPrefixSet, Prefixes: prefixes}
}

// splitRangeOp splits a trailing ^-operator from a word.
func splitRangeOp(w string) (base string, op prefix.RangeOp, err error) {
	i := strings.IndexByte(w, '^')
	if i < 0 {
		return w, prefix.NoOp, nil
	}
	op, err = prefix.ParseRangeOp(w[i+1:])
	if err != nil {
		return w, prefix.NoOp, err
	}
	return w[:i], op, nil
}

// parseFilterWord classifies a word-form filter primary.
func parseFilterWord(c *cursor) *ir.Filter {
	t := c.next()
	w := t.text

	// community(...) and community.method(...) filters.
	lower := strings.ToLower(w)
	if lower == "community" || strings.HasPrefix(lower, "community.") {
		call := strings.TrimPrefix(lower, "community")
		if c.peek().isPunct("(") {
			args := consumeParenArgs(c)
			return &ir.Filter{Kind: ir.FilterCommunity, Call: call + "(" + args + ")"}
		}
		return &ir.Filter{Kind: ir.FilterCommunity, Call: call}
	}

	base, op, err := splitRangeOp(w)
	if err != nil {
		return &ir.Filter{Kind: ir.FilterUnsupported, Raw: w}
	}
	upper := strings.ToUpper(base)

	switch {
	case upper == "ANY":
		return &ir.Filter{Kind: ir.FilterAny}
	case strings.EqualFold(base, "PeerAS"):
		return &ir.Filter{Kind: ir.FilterPeerAS, Op: op}
	case ir.IsASN(base):
		asn, _ := ir.ParseASN(base)
		return &ir.Filter{Kind: ir.FilterASN, ASN: asn, Op: op}
	case strings.Contains(base, "/"):
		// A bare prefix outside braces: tolerated, treated as a
		// singleton prefix set (seen in the wild).
		r, err := prefix.ParseRange(w)
		if err != nil {
			return &ir.Filter{Kind: ir.FilterUnsupported, Raw: w}
		}
		return &ir.Filter{Kind: ir.FilterPrefixSet, Prefixes: []prefix.Range{r}}
	}
	switch ClassifySetName(upper) {
	case SetClassAs:
		return &ir.Filter{Kind: ir.FilterAsSet, Name: upper, Op: op}
	case SetClassRoute:
		return &ir.Filter{Kind: ir.FilterRouteSet, Name: upper, Op: op}
	case SetClassFilter:
		return &ir.Filter{Kind: ir.FilterFilterSet, Name: upper}
	}
	return &ir.Filter{Kind: ir.FilterUnsupported, Raw: w}
}

// consumeParenArgs consumes "( ... )" (already peeked) and returns the
// raw argument text.
func consumeParenArgs(c *cursor) string {
	c.next() // '('
	var parts []string
	depth := 1
	for depth > 0 {
		t := c.next()
		switch {
		case t.kind == tokEOF:
			depth = 0
		case t.isPunct("("):
			depth++
			parts = append(parts, t.text)
		case t.isPunct(")"):
			depth--
			if depth > 0 {
				parts = append(parts, t.text)
			}
		case t.isPunct(","):
			parts = append(parts, ",")
		default:
			parts = append(parts, t.text)
		}
	}
	return strings.Join(parts, " ")
}

// unsupportedFilter wraps text in an unsupported filter node.
func unsupportedFilter(raw string) *ir.Filter {
	return &ir.Filter{Kind: ir.FilterUnsupported, Raw: raw}
}
