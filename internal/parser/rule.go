package parser

import (
	"fmt"
	"strings"

	"rpslyzer/internal/ir"
)

// ParseRule parses the value of one import/export (dir) or
// mp-import/mp-export (mp=true) attribute into an ir.Rule.
//
// Grammar (RFC 2622 section 6, RFC 4012):
//
//	rule   := [protocol <p>] [into <p>] policy
//	policy := [afi <afi-list>] term [ (EXCEPT|REFINE) policy ]
//	term   := '{' factor ';' ... '}' | factor
//	factor := (from|to <peering> [action <actions>])+ accept|announce <filter>
func ParseRule(dir ir.Direction, mp bool, text string) (ir.Rule, error) {
	return parseRule(&cursor{}, dir, mp, text)
}

// parseRule is ParseRule lexing into c's buffer.
func parseRule(c *cursor, dir ir.Direction, mp bool, text string) (ir.Rule, error) {
	if err := c.lex(text); err != nil {
		return ir.Rule{}, err
	}
	rule := ir.Rule{Dir: dir, MP: mp, Raw: text}

	if c.peek().isKeyword("protocol") {
		c.next()
		rule.Protocol = c.next().text
	}
	if c.peek().isKeyword("into") {
		c.next()
		rule.IntoProtocol = c.next().text
	}

	expr, err := parsePolicy(c, dir)
	if err != nil {
		return rule, err
	}
	if !c.atEOF() {
		return rule, fmt.Errorf("parser: trailing tokens in rule at %q", c.peek().text)
	}
	// Default AFI on the outermost node when unspecified.
	if expr.AFI.IsZero() {
		if mp {
			expr.AFI = ir.AFIAnyUnicast
		} else {
			expr.AFI = ir.AFIIPv4Unicast
		}
	}
	rule.Expr = expr
	return rule, nil
}

// parsePolicy parses "[afi list] term [(EXCEPT|REFINE) policy]".
func parsePolicy(c *cursor, dir ir.Direction) (*ir.PolicyExpr, error) {
	var afi ir.AFI
	if c.peek().isKeyword("afi") {
		c.next()
		parsed, err := parseAFIList(c)
		if err != nil {
			return nil, err
		}
		afi = parsed
	}
	term, err := parsePolicyTerm(c, dir)
	if err != nil {
		return nil, err
	}
	term.AFI = afi

	t := c.peek()
	switch {
	case t.isKeyword("except"), t.isKeyword("refine"):
		c.next()
		kind := ir.PolicyExcept
		if t.isKeyword("refine") {
			kind = ir.PolicyRefine
		}
		right, err := parsePolicy(c, dir)
		if err != nil {
			return nil, err
		}
		return &ir.PolicyExpr{Kind: kind, AFI: afi, Left: term, Right: right}, nil
	}
	return term, nil
}

// parseAFIList parses a comma-separated list of afi tokens.
func parseAFIList(c *cursor) (ir.AFI, error) {
	var afi ir.AFI
	for {
		t := c.next()
		if t.kind != tokWord {
			return afi, fmt.Errorf("parser: bad afi token %q", t.text)
		}
		a, err := ir.ParseAFIToken(t.text)
		if err != nil {
			return afi, err
		}
		afi = afi.Union(a)
		if !c.peek().isPunct(",") {
			return afi, nil
		}
		c.next()
	}
}

// parsePolicyTerm parses "{ factor; ... }" or a single factor.
func parsePolicyTerm(c *cursor, dir ir.Direction) (*ir.PolicyExpr, error) {
	node := &ir.PolicyExpr{Kind: ir.PolicyTerm}
	if c.peek().isPunct("{") {
		c.next()
		for {
			if c.peek().isPunct("}") {
				c.next()
				break
			}
			if c.atEOF() {
				return nil, fmt.Errorf("parser: unterminated policy term")
			}
			f, err := parsePolicyFactor(c, dir)
			if err != nil {
				return nil, err
			}
			node.Factors = append(node.Factors, f)
			// Optional ';' between factors.
			for c.peek().isPunct(";") {
				c.next()
			}
		}
		return node, nil
	}
	f, err := parsePolicyFactor(c, dir)
	if err != nil {
		return nil, err
	}
	// Optional trailing ';' after a bare factor.
	for c.peek().isPunct(";") {
		c.next()
	}
	node.Factors = []ir.PolicyFactor{f}
	return node, nil
}

// parsePolicyFactor parses "(from|to <peering> [action ...])+
// accept|announce <filter>".
func parsePolicyFactor(c *cursor, dir ir.Direction) (ir.PolicyFactor, error) {
	var factor ir.PolicyFactor
	peerKW, filterKW := "from", "accept"
	if dir == ir.DirExport {
		peerKW, filterKW = "to", "announce"
	}
	for {
		t := c.peek()
		if t.isKeyword(peerKW) {
			c.next()
			peering, ok := parsePeering(c)
			if !ok {
				return factor, fmt.Errorf("parser: bad peering after %q", peerKW)
			}
			pa := ir.PeeringAction{Peering: peering}
			if c.peek().isKeyword("action") {
				c.next()
				actions, err := parseActions(c)
				if err != nil {
					return factor, err
				}
				pa.Actions = actions
			}
			factor.Peerings = append(factor.Peerings, pa)
			continue
		}
		break
	}
	if len(factor.Peerings) == 0 {
		return factor, fmt.Errorf("parser: policy factor without %q clause (found %q)", peerKW, c.peek().text)
	}
	if !c.peek().isKeyword(filterKW) {
		return factor, fmt.Errorf("parser: expected %q, found %q", filterKW, c.peek().text)
	}
	c.next()
	factor.Filter = parseFilterExpr(c)
	return factor, nil
}

// parseActions parses an action list: "attr op value; attr op value;
// ...". It stops before accept/announce/from/to or a term boundary.
// RPSL action syntax in the wild is loose ("pref=100", "pref = 100",
// "community.append(1:2)", "community .= { 1:2 }"), all handled here.
func parseActions(c *cursor) ([]ir.Action, error) {
	var actions []ir.Action
	for {
		t := c.peek()
		if peeringStopper(t) && !t.isPunct(";") {
			return actions, nil
		}
		if t.isPunct(";") {
			c.next()
			// A ';' can end the whole action list; look ahead.
			if nt := c.peek(); nt.isKeyword("accept") || nt.isKeyword("announce") ||
				nt.isKeyword("from") || nt.isKeyword("to") || nt.kind == tokEOF ||
				nt.isPunct("}") || nt.isPunct(";") {
				return actions, nil
			}
			continue
		}
		a, err := parseOneAction(c)
		if err != nil {
			return actions, err
		}
		actions = append(actions, a)
	}
}

// parseOneAction parses a single action up to (not including) ';' or a
// list terminator.
func parseOneAction(c *cursor) (ir.Action, error) {
	t := c.next()
	if t.kind != tokWord {
		return ir.Action{}, fmt.Errorf("parser: bad action token %q", t.text)
	}
	w := t.text

	// Inline "attr=value" or "attr.=value" (with or without a value
	// attached; a braced value follows as separate tokens).
	if i := strings.IndexByte(w, '='); i > 0 {
		attr, op := w[:i], "="
		if w[i-1] == '.' {
			attr, op = w[:i-1], ".="
		}
		val := w[i+1:]
		if val == "" {
			val = collectActionValue(c)
		}
		return ir.Action{Attr: strings.ToLower(attr), Op: op, Value: val}, nil
	}

	// Method call: "attr.method" followed by "(args)".
	if dot := strings.LastIndexByte(w, '.'); dot > 0 && c.peek().isPunct("(") {
		args := consumeParenArgs(c)
		return ir.Action{
			Attr:  strings.ToLower(w[:dot]),
			Op:    strings.ToLower(w[dot+1:]),
			Value: args,
		}, nil
	}

	// Spaced operator: attr = value / attr .= value.
	nt := c.peek()
	if nt.kind == tokWord && (nt.text == "=" || nt.text == ".=" ||
		strings.HasPrefix(nt.text, "=") || strings.HasPrefix(nt.text, ".=")) {
		op := c.next().text
		var val string
		switch {
		case op == "=" || op == ".=":
			val = collectActionValue(c)
		case strings.HasPrefix(op, ".="):
			val = strings.TrimPrefix(op, ".=")
			op = ".="
		default:
			val = strings.TrimPrefix(op, "=")
			op = "="
		}
		if val == "" {
			val = collectActionValue(c)
		}
		return ir.Action{Attr: strings.ToLower(w), Op: op, Value: val}, nil
	}

	// Bare word action (e.g. a nonstandard flag).
	return ir.Action{Attr: strings.ToLower(w)}, nil
}

// collectActionValue gathers an action's right-hand side, which may be
// a single word, a braced community list "{ 1:2, 3:4 }", or a
// parenthesized expression.
func collectActionValue(c *cursor) string {
	t := c.peek()
	switch {
	case t.isPunct("{"):
		c.next()
		var parts []string
		for {
			t := c.next()
			if t.kind == tokEOF || t.isPunct("}") {
				break
			}
			if t.isPunct(",") {
				parts = append(parts, ",")
				continue
			}
			parts = append(parts, t.text)
		}
		return "{ " + strings.Join(parts, " ") + " }"
	case t.isPunct("("):
		return "(" + consumeParenArgs(c) + ")"
	case t.kind == tokWord:
		c.next()
		return t.text
	}
	return ""
}
