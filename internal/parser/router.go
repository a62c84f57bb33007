package parser

import (
	"fmt"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/rpsl"
)

// ParseDefaultRule parses a default/mp-default attribute value:
//
//	default: to <peering> [action <actions>] [networks <filter>]
func ParseDefaultRule(mp bool, text string) (ir.DefaultRule, error) {
	return parseDefaultRule(&cursor{}, mp, text)
}

// parseDefaultRule is ParseDefaultRule lexing into c's buffer.
func parseDefaultRule(c *cursor, mp bool, text string) (ir.DefaultRule, error) {
	if err := c.lex(text); err != nil {
		return ir.DefaultRule{}, err
	}
	d := ir.DefaultRule{MP: mp, Raw: text}
	// RPSLng allows a leading afi list; consume and ignore (the
	// peering carries the semantics we keep).
	if c.peek().isKeyword("afi") {
		c.next()
		if _, err := parseAFIList(c); err != nil {
			return d, err
		}
	}
	if !c.peek().isKeyword("to") {
		return d, fmt.Errorf("parser: default without 'to' (found %q)", c.peek().text)
	}
	c.next()
	peering, ok := parsePeering(c)
	if !ok {
		return d, fmt.Errorf("parser: bad peering in default")
	}
	d.Peering = peering
	if c.peek().isKeyword("action") {
		c.next()
		actions, err := parseActions(c)
		if err != nil {
			return d, err
		}
		d.Actions = actions
	}
	if c.peek().isKeyword("networks") {
		c.next()
		d.Networks = parseFilterExpr(c)
	}
	for c.peek().isPunct(";") {
		c.next()
	}
	if !c.atEOF() {
		return d, fmt.Errorf("parser: trailing tokens in default at %q", c.peek().text)
	}
	return d, nil
}

// addInetRtr decomposes an inet-rtr object.
func (b *builder) addInetRtr(obj *rpsl.Object) {
	name := strings.ToUpper(obj.Name)
	rtr := &ir.InetRtr{Name: name, Source: obj.Source}
	if las, ok := obj.Get("local-as"); ok {
		asn, err := ir.ParseASN(las)
		if err != nil {
			b.addError(obj, "syntax", "bad local-as %q", las)
		} else {
			rtr.LocalAS = asn
		}
	}
	rtr.IfAddrs = obj.All("ifaddr")
	rtr.Peers = append(obj.All("peer"), obj.All("mp-peer")...)
	b.flat.InetRtrs = append(b.flat.InetRtrs, rtr)
}

// addRtrSet decomposes an rtr-set object.
func (b *builder) addRtrSet(obj *rpsl.Object) {
	name := obj.Name
	if !validSetName(name, "RTRS-") {
		b.addError(obj, "invalid-rtr-set-name", "invalid rtr-set name %q", name)
	}
	set := &ir.RtrSet{Name: name, Source: obj.Source}
	set.Members = splitList(obj, "members", "mp-members")
	b.flat.RtrSets = append(b.flat.RtrSets, set)
}
