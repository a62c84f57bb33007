// Package bgpq implements the baseline the paper compares feature
// coverage against: a BGPq4-style router-filter generator that
// resolves single-term RPSL expressions (an ASN, as-set, or route-set)
// into prefix lists, plus the compatibility classifier used in the
// Figure 1 analysis ("BGPq4-compatible rules").
package bgpq

import (
	"fmt"
	"sort"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/prefix"
)

// Compatible reports whether a rule is expressible to BGPq4. Per the
// paper's tests, BGPq4 does not support filters comprising
// filter-sets, AS-path regexes, BGP communities, Composite Policy
// Filters (AND, OR, NOT), or Structured Policies (refine or except).
func Compatible(r *ir.Rule) bool {
	if r.Expr == nil || r.Expr.Kind != ir.PolicyTerm {
		return false // no policy, or a structured one
	}
	for i := range r.Expr.Factors {
		if !filterCompatible(r.Expr.Factors[i].Filter) {
			return false
		}
	}
	return true
}

func filterCompatible(f *ir.Filter) bool {
	if f == nil {
		return false
	}
	switch f.Kind {
	case ir.FilterAny, ir.FilterNone, ir.FilterPeerAS, ir.FilterASN,
		ir.FilterAsSet, ir.FilterRouteSet, ir.FilterPrefixSet:
		return true
	}
	return false
}

// Format selects the router configuration dialect of the generated
// filter.
type Format uint8

const (
	// FormatIOS emits Cisco IOS prefix-list lines.
	FormatIOS Format = iota
	// FormatJunos emits Junos route-filter lines.
	FormatJunos
)

// GenerateOptions tunes filter generation.
type GenerateOptions struct {
	// Name is the prefix-list name.
	Name string
	// Format selects the dialect.
	Format Format
	// IPv6 selects address family (prefix lists are per family, as in
	// bgpq4's -4/-6 flags).
	IPv6 bool
	// Aggregate merges adjacent prefixes where possible (bgpq4 -A).
	Aggregate bool
}

// Generate resolves an RPSL object name (ASN, as-set, or route-set)
// into router prefix-list configuration, like `bgpq4 AS-EXAMPLE`.
func Generate(db *irr.Database, object string, opts GenerateOptions) (string, error) {
	if opts.Name == "" {
		opts.Name = "NN"
	}
	prefixes, err := Resolve(db, object)
	if err != nil {
		return "", err
	}
	var keep []prefix.Prefix
	for _, p := range prefixes {
		if p.IsIPv6() == opts.IPv6 {
			keep = append(keep, p)
		}
	}
	sort.Slice(keep, func(i, j int) bool { return keep[i].Compare(keep[j]) < 0 })
	if opts.Aggregate {
		keep = aggregate(keep)
	}
	var b strings.Builder
	switch opts.Format {
	case FormatJunos:
		fmt.Fprintf(&b, "policy-options {\nreplace:\n policy-statement %s {\n", opts.Name)
		if len(keep) == 0 {
			b.WriteString("  then reject;\n")
		} else {
			b.WriteString("  term a {\n   from {\n")
			for _, p := range keep {
				fmt.Fprintf(&b, "    route-filter %s exact;\n", p)
			}
			b.WriteString("   }\n   then accept;\n  }\n  then reject;\n")
		}
		b.WriteString(" }\n}\n")
	default:
		fmt.Fprintf(&b, "no ip prefix-list %s\n", opts.Name)
		if len(keep) == 0 {
			fmt.Fprintf(&b, "ip prefix-list %s deny 0.0.0.0/0 le 32\n", opts.Name)
		}
		for i, p := range keep {
			fmt.Fprintf(&b, "ip prefix-list %s seq %d permit %s\n", opts.Name, (i+1)*5, p)
		}
	}
	return b.String(), nil
}

// Resolve expands an object name to the prefixes it denotes: for an
// ASN, its route objects; for an as-set, the route objects of its
// flattened members; for a route-set, its flattened prefixes (range
// operators are expanded to their base prefixes, like bgpq4 does when
// emitting exact-match lists).
func Resolve(db *irr.Database, object string) ([]prefix.Prefix, error) {
	object = strings.ToUpper(strings.TrimSpace(object))
	collectTable := func(t *prefix.Table) []prefix.Prefix {
		out := make([]prefix.Prefix, 0, t.Len())
		for _, e := range t.Entries() {
			out = append(out, e.Prefix)
		}
		return out
	}
	if ir.IsASN(object) {
		asn, _ := ir.ParseASN(object)
		t, ok := db.RouteTable(asn)
		if !ok {
			return nil, fmt.Errorf("bgpq: %s has no route objects", object)
		}
		return collectTable(t), nil
	}
	if strings.Contains(object, "RS-") {
		rs, ok := db.RouteSet(object)
		if !ok {
			return nil, fmt.Errorf("bgpq: route-set %s not found", object)
		}
		return collectTable(rs.Table), nil
	}
	t, ok := db.AsSetPrefixTable(object)
	if !ok {
		return nil, fmt.Errorf("bgpq: as-set %s not found", object)
	}
	return collectTable(t), nil
}

// aggregate merges sibling prefixes (two halves of the same parent)
// into their parent, repeatedly, like bgpq4's -A.
func aggregate(ps []prefix.Prefix) []prefix.Prefix {
	changed := true
	for changed {
		changed = false
		var out []prefix.Prefix
		i := 0
		for i < len(ps) {
			if i+1 < len(ps) && siblings(ps[i], ps[i+1]) {
				parent, err := ps[i].Addr().Prefix(ps[i].Bits() - 1)
				if err == nil {
					out = append(out, prefix.FromNetip(parent))
					i += 2
					changed = true
					continue
				}
			}
			// Drop prefixes covered by an already-emitted aggregate.
			if len(out) > 0 && out[len(out)-1].Covers(ps[i]) {
				i++
				changed = true
				continue
			}
			out = append(out, ps[i])
			i++
		}
		ps = out
	}
	return ps
}

// siblings reports whether a and b are the two halves of one parent
// prefix.
func siblings(a, b prefix.Prefix) bool {
	if a.Bits() != b.Bits() || a.Bits() == 0 {
		return false
	}
	if a.Addr().Is4() != b.Addr().Is4() {
		return false
	}
	pa, err1 := a.Addr().Prefix(a.Bits() - 1)
	pb, err2 := b.Addr().Prefix(b.Bits() - 1)
	if err1 != nil || err2 != nil {
		return false
	}
	return pa == pb && a.Compare(b) != 0
}
