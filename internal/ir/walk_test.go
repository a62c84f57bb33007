package ir_test

import (
	"slices"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
)

// TestPolicyTreeWalks holds every traversal of the policy tree to
// pre-order, each node once, over parsed rules: AutNum.Rules,
// PolicyExpr.AllFactors, and within each factor ASExpr.Walk,
// Filter.Walk, PathRegex.WalkNodes and WalkTerms.
func TestPolicyTreeWalks(t *testing.T) {
	cases := []struct {
		name    string
		dir     ir.Direction
		raw     string
		factors []string // each factor's filter, in AllFactors order
		asExprs []string // each peering's as-expression nodes, in Walk order
		filters []string // each factor's filter nodes, in Walk order
		nodes   []string // each regex's nodes, in WalkNodes order
		terms   []string // each regex's terms, in WalkTerms order
	}{
		{
			name:    "refine over except",
			dir:     ir.DirImport,
			raw:     "from AS1 accept AS-A; refine { from AS2 accept AS-B; from AS3 accept AS-C; } except { from AS4 accept AS-D; }",
			factors: []string{"AS-A", "AS-B", "AS-C", "AS-D"},
			asExprs: []string{"AS1", "AS2", "AS3", "AS4"},
			filters: []string{"AS-A", "AS-B", "AS-C", "AS-D"},
		},
		{
			name:    "as-expression and grouped regex",
			dir:     ir.DirImport,
			raw:     "from AS1 AND (AS-X OR AS2) EXCEPT AS3 accept <^AS1 (AS2 | AS-S)+ [AS3 AS4-AS5] .* $> AND AS-F",
			factors: []string{"(<^AS1 (AS2 | AS-S)+ [AS3 AS4-AS5] .* $> AND AS-F)"},
			asExprs: []string{"except", "and", "AS1", "or", "AS-X", "AS2", "AS3"},
			filters: []string{"and", "<^AS1 (AS2 | AS-S)+ [AS3 AS4-AS5] .* $>", "AS-F"},
			nodes:   []string{"concat", "token", "repeat", "alt", "token", "token", "token", "repeat", "token"},
			terms:   []string{"AS1", "AS2", "AS-S", "[AS3 AS4-AS5]", "AS3", "AS4-AS5", "."},
		},
		{
			name:    "export with two peerings",
			dir:     ir.DirExport,
			raw:     "to AS5 to AS-P OR AS6 announce NOT <AS7+>",
			factors: []string{"NOT <AS7+>"},
			asExprs: []string{"AS5", "or", "AS-P", "AS6"},
			filters: []string{"not", "<AS7+>"},
			nodes:   []string{"repeat", "token"},
			terms:   []string{"AS7"},
		},
	}
	an := &ir.AutNum{}
	var want []*ir.Rule
	for _, c := range cases {
		r, err := parser.ParseRule(c.dir, false, c.raw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if c.dir == ir.DirImport {
			an.Imports = append(an.Imports, r)
		} else {
			an.Exports = append(an.Exports, r)
		}
	}
	for i := range an.Imports {
		want = append(want, &an.Imports[i])
	}
	for i := range an.Exports {
		want = append(want, &an.Exports[i])
	}
	if got := slices.Collect(an.Rules()); !slices.Equal(got, want) {
		t.Errorf("Rules yielded %v, want the imports then the exports %v", got, want)
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := parser.ParseRule(c.dir, false, c.raw)
			if err != nil {
				t.Fatal(err)
			}
			var factors, asExprs, filters, nodes, terms []string
			for f := range r.Expr.AllFactors() {
				factors = append(factors, f.Filter.String())
				for _, pa := range f.Peerings {
					pa.Peering.ASExpr.Walk(func(e *ir.ASExpr) { asExprs = append(asExprs, asLabel(e)) })
				}
				f.Filter.Walk(func(n *ir.Filter) {
					filters = append(filters, filterLabel(n))
					n.Regex.WalkNodes(func(node *ir.PathNode) { nodes = append(nodes, node.Kind.String()) })
					n.Regex.WalkTerms(func(term *ir.PathTerm) { terms = append(terms, term.String()) })
				})
			}
			for _, w := range []struct {
				what      string
				got, want []string
			}{
				{"AllFactors", factors, c.factors},
				{"ASExpr.Walk", asExprs, c.asExprs},
				{"Filter.Walk", filters, c.filters},
				{"WalkNodes", nodes, c.nodes},
				{"WalkTerms", terms, c.terms},
			} {
				if !slices.Equal(w.got, w.want) {
					t.Errorf("%s visited %q, want %q", w.what, w.got, w.want)
				}
			}
		})
	}

	t.Run("nil yields nothing", func(t *testing.T) {
		visits := 0
		for range (*ir.AutNum)(nil).Rules() {
			visits++
		}
		for range (*ir.PolicyExpr)(nil).AllFactors() {
			visits++
		}
		(*ir.ASExpr)(nil).Walk(func(*ir.ASExpr) { visits++ })
		(*ir.Filter)(nil).Walk(func(*ir.Filter) { visits++ })
		(*ir.PathRegex)(nil).WalkNodes(func(*ir.PathNode) { visits++ })
		(*ir.PathRegex)(nil).WalkTerms(func(*ir.PathTerm) { visits++ })
		if visits != 0 {
			t.Errorf("nil receivers visited %d nodes", visits)
		}
	})

	t.Run("break stops the walk", func(t *testing.T) {
		var rules []*ir.Rule
		for r := range an.Rules() {
			rules = append(rules, r)
			if len(rules) == 2 {
				break
			}
		}
		if !slices.Equal(rules, want[:2]) {
			t.Errorf("Rules after a break at the second rule yielded %v, want %v", rules, want[:2])
		}
		// AS-B is the first factor under the refine's right-hand
		// except, so the break unwinds through two levels of the tree.
		var factors []string
		for f := range an.Imports[0].Expr.AllFactors() {
			factors = append(factors, f.Filter.String())
			if f.Filter.String() == "AS-B" {
				break
			}
		}
		if want := []string{"AS-A", "AS-B"}; !slices.Equal(factors, want) {
			t.Errorf("AllFactors after a break at AS-B yielded %q, want %q", factors, want)
		}
	})
}

// asLabel names an as-expression node: an operator by its kind, a leaf
// by its text.
func asLabel(e *ir.ASExpr) string {
	switch e.Kind {
	case ir.ASExprAnd, ir.ASExprOr, ir.ASExprExcept:
		return e.Kind.String()
	}
	return e.String()
}

// filterLabel names a filter node: an operator by its kind, a leaf by
// its text.
func filterLabel(f *ir.Filter) string {
	switch f.Kind {
	case ir.FilterAnd, ir.FilterOr, ir.FilterNot:
		return f.Kind.String()
	}
	return f.String()
}
