// Package lint implements the RPSL linter the paper's conclusion calls
// for ("future work includes the development of further RPSL tooling
// such as linters"): it walks the merged IRR database and reports the
// misuses, anomalies, and maintenance hazards Sections 4 and 5
// identify, as actionable per-object findings.
package lint

import (
	"fmt"
	"sort"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
)

// Severity grades findings.
type Severity uint8

const (
	// Info findings are stylistic or advisory.
	Info Severity = iota
	// Warning findings risk verification failures or maintenance pain.
	Warning
	// Error findings break interpretation or reference missing data.
	Error
)

// String renders the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "invalid"
}

// Finding is one linter diagnostic.
type Finding struct {
	Severity Severity `json:"severity"`
	// Rule is the finding's stable identifier, e.g. "export-self".
	Rule string `json:"rule"`
	// Object names the offending object (an ASN or a set name).
	Object string `json:"object"`
	Msg    string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s: %s", f.Severity, f.Object, f.Rule, f.Msg)
}

// Linter checks a database. Rels is optional; relationship-dependent
// checks (export-self, import-customer) are skipped when nil.
type Linter struct {
	DB   *irr.Database
	Rels *asrel.Database
}

// New creates a linter.
func New(db *irr.Database, rels *asrel.Database) *Linter {
	return &Linter{DB: db, Rels: rels}
}

// Run executes every check and returns findings sorted by severity
// (desc), then object.
func (l *Linter) Run() []Finding {
	var out []Finding
	out = append(out, l.checkAsSets()...)
	out = append(out, l.checkAutNums()...)
	out = append(out, l.checkParseErrors()...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		if out[i].Object != out[j].Object {
			return out[i].Object < out[j].Object
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// checkAsSets audits set objects: the Section 4 pathology census as
// per-object findings.
func (l *Linter) checkAsSets() []Finding {
	var out []Finding
	names := make([]string, 0, len(l.DB.IR.AsSets))
	for name := range l.DB.IR.AsSets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		set := l.DB.IR.AsSets[name]
		if parser.IsReservedSetName(name) {
			out = append(out, Finding{Error, "reserved-set-name", name,
				"set named after an RPSL keyword; tools may misinterpret references to it"})
		}
		if set.ContainsAnyKeyword {
			out = append(out, Finding{Error, "any-keyword-member", name,
				"the reserved keyword ANY appears among members"})
		}
		direct := len(set.MemberASNs) + len(set.MemberSets)
		if direct == 0 && !set.ContainsAnyKeyword && len(set.MbrsByRef) == 0 {
			out = append(out, Finding{Warning, "empty-as-set", name,
				"set has no members; rules referencing it match nothing"})
		}
		if direct == 1 && len(set.MemberASNs) == 1 {
			out = append(out, Finding{Info, "single-member-as-set", name,
				fmt.Sprintf("set contains only %s; the member could replace the set", set.MemberASNs[0])})
		}
		flat, ok := l.DB.AsSet(name)
		if !ok {
			continue
		}
		if flat.InLoop {
			out = append(out, Finding{Warning, "as-set-loop", name,
				"set participates in a reference cycle"})
		}
		if flat.Recursive && flat.Depth >= 5 {
			out = append(out, Finding{Info, "deep-as-set", name,
				fmt.Sprintf("reference chain depth %d; manual tracking is error-prone", flat.Depth)})
		}
		if len(flat.ASNs) > 10000 {
			out = append(out, Finding{Info, "huge-as-set", name,
				fmt.Sprintf("%d flattened members", len(flat.ASNs))})
		}
		for _, missing := range flat.Unrecorded {
			out = append(out, Finding{Error, "unrecorded-member", name,
				fmt.Sprintf("member %s is not defined in any IRR", missing)})
		}
	}
	return out
}

// checkAutNums audits policies: missing references, misuse patterns,
// and unverifiable filters.
func (l *Linter) checkAutNums() []Finding {
	var out []Finding
	for _, asn := range l.DB.IR.SortedAutNums() {
		an := l.DB.IR.AutNums[asn]
		obj := asn.String()
		for r := range an.Rules() {
			out = append(out, l.checkRule(obj, r)...)
		}
		if l.Rels != nil {
			out = append(out, l.checkMisuse(an)...)
		}
	}
	return out
}

// checkRule audits one rule's references and filters.
func (l *Linter) checkRule(obj string, r *ir.Rule) []Finding {
	var out []Finding
	seen := map[string]bool{}
	add := func(sev Severity, rule, msg string) {
		key := rule + "\x00" + msg
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, Finding{sev, rule, obj, msg})
	}
	checkFilter := func(f *ir.Filter) {
		switch f.Kind {
		case ir.FilterASN:
			if _, ok := l.DB.RouteTable(f.ASN); !ok {
				add(Warning, "zero-route-filter",
					fmt.Sprintf("filter references %s, which originates no route objects", f.ASN))
			}
		case ir.FilterAsSet:
			if flat, ok := l.DB.AsSet(f.Name); !ok {
				add(Error, "unrecorded-reference",
					fmt.Sprintf("filter references undefined as-set %s", f.Name))
			} else if len(flat.ASNs) == 0 {
				add(Warning, "empty-set-filter",
					fmt.Sprintf("filter references as-set %s, which flattens to no ASes", f.Name))
			}
		case ir.FilterRouteSet:
			if _, ok := l.DB.RouteSet(f.Name); !ok {
				add(Error, "unrecorded-reference",
					fmt.Sprintf("filter references undefined route-set %s", f.Name))
			}
		case ir.FilterFilterSet:
			if _, ok := l.DB.FilterSet(f.Name); !ok {
				add(Error, "unrecorded-reference",
					fmt.Sprintf("filter references undefined filter-set %s", f.Name))
			}
		case ir.FilterCommunity:
			add(Info, "community-filter",
				"community filters cannot be verified from route collectors (communities may be stripped in flight)")
		case ir.FilterUnsupported:
			add(Warning, "unsupported-filter",
				fmt.Sprintf("uninterpretable filter text %q", f.Raw))
		case ir.FilterPathRegex:
			f.Regex.WalkTerms(func(t *ir.PathTerm) {
				if t.Kind == ir.PathSet {
					if _, ok := l.DB.AsSet(t.Name); !ok {
						add(Error, "unrecorded-reference",
							fmt.Sprintf("AS-path regex references undefined as-set %s", t.Name))
					}
				}
			})
		}
	}
	checkASExpr := func(e *ir.ASExpr) {
		if e.Kind == ir.ASExprSet {
			if _, ok := l.DB.AsSet(e.Name); !ok {
				add(Error, "unrecorded-reference",
					fmt.Sprintf("peering references undefined as-set %s", e.Name))
			}
		}
	}
	for f := range r.Expr.AllFactors() {
		f.Filter.Walk(checkFilter)
		for j := range f.Peerings {
			p := &f.Peerings[j].Peering
			if p.PeeringSet != "" {
				if _, ok := l.DB.PeeringSet(p.PeeringSet); !ok {
					add(Error, "unrecorded-reference",
						fmt.Sprintf("peering references undefined peering-set %s", p.PeeringSet))
				}
			}
			p.ASExpr.Walk(checkASExpr)
		}
	}
	return out
}

// checkMisuse detects the Section 5.1.1 misuse patterns with the
// relationship database.
func (l *Linter) checkMisuse(an *ir.AutNum) []Finding {
	var out []Finding
	obj := an.ASN.String()
	isTransit := len(l.Rels.Customers(an.ASN)) > 0
	if !isTransit {
		return nil
	}
	for i := range an.Exports {
		r := &an.Exports[i]
		if r.Expr == nil || r.Expr.Kind != ir.PolicyTerm {
			continue
		}
		for _, f := range r.Expr.Factors {
			if f.Filter == nil || f.Filter.Kind != ir.FilterASN || f.Filter.ASN != an.ASN {
				continue
			}
			for _, pa := range f.Peerings {
				e := pa.Peering.ASExpr
				if e == nil || e.Kind != ir.ASExprNum {
					continue
				}
				rel := l.Rels.Rel(an.ASN, e.ASN)
				if rel == asrel.Customer || rel == asrel.Peer {
					out = append(out, Finding{Warning, "export-self", obj,
						fmt.Sprintf("transit AS announces only itself to %s; customers' routes are excluded — announce a customers as-set or route-set instead", e.ASN)})
				}
			}
		}
	}
	for i := range an.Imports {
		r := &an.Imports[i]
		if r.Expr == nil || r.Expr.Kind != ir.PolicyTerm {
			continue
		}
		for _, f := range r.Expr.Factors {
			if f.Filter == nil || f.Filter.Kind != ir.FilterASN {
				continue
			}
			for _, pa := range f.Peerings {
				e := pa.Peering.ASExpr
				if e == nil || e.Kind != ir.ASExprNum || e.ASN != f.Filter.ASN {
					continue
				}
				if l.Rels.Rel(an.ASN, e.ASN) != asrel.Provider {
					continue
				}
				if len(l.Rels.Customers(e.ASN)) > 0 {
					out = append(out, Finding{Warning, "import-customer", obj,
						fmt.Sprintf("imports 'from %s accept %s' but %s has its own customers, whose routes the strict filter rejects", e.ASN, e.ASN, e.ASN)})
				}
			}
		}
	}
	return out
}

// checkParseErrors re-surfaces parse-time errors as findings so one
// report covers everything.
func (l *Linter) checkParseErrors() []Finding {
	var out []Finding
	for _, e := range l.DB.IR.Errors {
		sev := Error
		obj := e.Object
		if obj == "" {
			obj = e.Source
		}
		out = append(out, Finding{sev, e.Kind, obj, e.Msg})
	}
	return out
}

// Summary counts findings by rule.
func Summary(fs []Finding) map[string]int {
	out := make(map[string]int)
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}
