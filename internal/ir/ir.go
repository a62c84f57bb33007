// Package ir defines RPSLyzer's intermediate representation (IR): a
// single data structure capturing the meaning of all routing-related
// RPSL objects, mirroring the paper's Rust `Ir` struct. The IR is what
// the verifier interprets and what `cmd/rpslyzer` exports as JSON for
// integration with other tools.
package ir

import (
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rpslyzer/internal/prefix"
)

// ASN is an autonomous system number. 32-bit ASNs are supported.
type ASN uint32

// String renders the ASN in the canonical "AS64496" form.
func (a ASN) String() string { return "AS" + strconv.FormatUint(uint64(a), 10) }

// ParseASN parses "AS64496" (case-insensitive) into an ASN. It also
// accepts asdot notation "AS1.10" used by some registries.
func ParseASN(s string) (ASN, error) {
	t := s
	if len(t) >= 2 && (t[0] == 'A' || t[0] == 'a') && (t[1] == 'S' || t[1] == 's') {
		t = t[2:]
	} else {
		return 0, fmt.Errorf("ir: %q is not an AS number", s)
	}
	if dot := strings.IndexByte(t, '.'); dot >= 0 {
		hi, err1 := strconv.ParseUint(t[:dot], 10, 16)
		lo, err2 := strconv.ParseUint(t[dot+1:], 10, 16)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("ir: %q is not an AS number", s)
		}
		return ASN(hi<<16 | lo), nil
	}
	n, err := strconv.ParseUint(t, 10, 32)
	if err != nil || len(t) == 0 {
		return 0, fmt.Errorf("ir: %q is not an AS number", s)
	}
	return ASN(n), nil
}

// IsASN reports whether s looks like an AS number token.
func IsASN(s string) bool {
	_, err := ParseASN(s)
	return err == nil
}

// AFI describes which address families and cast types a rule applies
// to. The zero value means unspecified; plain import/export attributes
// default to IPv4 unicast, while mp- attributes default to any unicast.
type AFI struct {
	IPv4      bool `json:"ipv4,omitempty"`
	IPv6      bool `json:"ipv6,omitempty"`
	Unicast   bool `json:"unicast,omitempty"`
	Multicast bool `json:"multicast,omitempty"`
}

// AFIIPv4Unicast is the default AFI of non-mp rules.
var AFIIPv4Unicast = AFI{IPv4: true, Unicast: true}

// AFIAnyUnicast is the default AFI of mp- rules.
var AFIAnyUnicast = AFI{IPv4: true, IPv6: true, Unicast: true}

// IsZero reports whether the AFI is unspecified.
func (a AFI) IsZero() bool { return a == AFI{} }

// MatchesPrefix reports whether a route with the given prefix falls
// under this AFI (cast type is ignored: BGP dumps carry unicast).
func (a AFI) MatchesPrefix(p prefix.Prefix) bool {
	if p.IsIPv4() {
		return a.IPv4
	}
	return a.IPv6
}

// ParseAFIToken parses one afi token such as "any", "ipv4.unicast",
// "ipv6.multicast", or "any.unicast".
func ParseAFIToken(s string) (AFI, error) {
	fam, cast, _ := strings.Cut(strings.ToLower(s), ".")
	var a AFI
	switch fam {
	case "any":
		a.IPv4, a.IPv6 = true, true
	case "ipv4":
		a.IPv4 = true
	case "ipv6":
		a.IPv6 = true
	default:
		return AFI{}, fmt.Errorf("ir: unknown afi %q", s)
	}
	switch cast {
	case "":
		a.Unicast, a.Multicast = true, true
	case "unicast":
		a.Unicast = true
	case "multicast":
		a.Multicast = true
	case "any":
		a.Unicast, a.Multicast = true, true
	default:
		return AFI{}, fmt.Errorf("ir: unknown afi cast %q", s)
	}
	return a, nil
}

// Union merges two AFIs.
func (a AFI) Union(b AFI) AFI {
	return AFI{
		IPv4:      a.IPv4 || b.IPv4,
		IPv6:      a.IPv6 || b.IPv6,
		Unicast:   a.Unicast || b.Unicast,
		Multicast: a.Multicast || b.Multicast,
	}
}

// String renders the AFI in RPSL syntax.
func (a AFI) String() string {
	var fam, cast string
	switch {
	case a.IPv4 && a.IPv6:
		fam = "any"
	case a.IPv4:
		fam = "ipv4"
	case a.IPv6:
		fam = "ipv6"
	default:
		return "none"
	}
	switch {
	case a.Unicast && a.Multicast:
		cast = ""
	case a.Unicast:
		cast = ".unicast"
	case a.Multicast:
		cast = ".multicast"
	}
	return fam + cast
}

// IR is the intermediate representation of a set of parsed IRR dumps.
// Maps are keyed by ASN or by upper-cased set name.
type IR struct {
	AutNums     map[ASN]*AutNum           `json:"aut_nums"`
	AsSets      map[string]*AsSet         `json:"as_sets"`
	RouteSets   map[string]*RouteSet      `json:"route_sets"`
	PeeringSets map[string]*PeeringSet    `json:"peering_sets"`
	FilterSets  map[string]*FilterSet     `json:"filter_sets"`
	InetRtrs    map[string]*InetRtr       `json:"inet_rtrs,omitempty"`
	RtrSets     map[string]*RtrSet        `json:"rtr_sets,omitempty"`
	Routes      []*RouteObject            `json:"routes"`
	Errors      []ParseError              `json:"errors,omitempty"`
	Counts      map[string]map[string]int `json:"counts,omitempty"` // source -> class -> count
}

// New returns an empty IR with all maps allocated.
func New() *IR {
	return &IR{
		AutNums:     make(map[ASN]*AutNum),
		AsSets:      make(map[string]*AsSet),
		RouteSets:   make(map[string]*RouteSet),
		PeeringSets: make(map[string]*PeeringSet),
		FilterSets:  make(map[string]*FilterSet),
		InetRtrs:    make(map[string]*InetRtr),
		RtrSets:     make(map[string]*RtrSet),
		Counts:      make(map[string]map[string]int),
	}
}

// Clone returns a snapshot copy of the IR for copy-on-write updates:
// every top-level map and slice is freshly allocated, while the
// objects themselves (*AutNum, *AsSet, ...) are shared. A mutator that
// treats objects as immutable — replacing map entries with newly
// parsed objects instead of editing them in place — can therefore
// build a new snapshot without disturbing readers of the old one.
// The incremental mirroring path (internal/nrtm) relies on this.
func (x *IR) Clone() *IR {
	c := &IR{
		AutNums:     maps.Clone(x.AutNums),
		AsSets:      maps.Clone(x.AsSets),
		RouteSets:   maps.Clone(x.RouteSets),
		PeeringSets: maps.Clone(x.PeeringSets),
		FilterSets:  maps.Clone(x.FilterSets),
		InetRtrs:    maps.Clone(x.InetRtrs),
		RtrSets:     maps.Clone(x.RtrSets),
		Routes:      slices.Clone(x.Routes),
		Errors:      slices.Clone(x.Errors),
		Counts:      make(map[string]map[string]int, len(x.Counts)),
	}
	for src, m := range x.Counts {
		c.Counts[src] = maps.Clone(m)
	}
	return c
}

// CountObject bumps the per-source, per-class object counter.
func (x *IR) CountObject(source, class string) {
	m := x.Counts[source]
	if m == nil {
		m = make(map[string]int)
		x.Counts[source] = m
	}
	m[class]++
}

// ParseError records a syntax or semantic problem found while building
// the IR (the paper reports 663 syntax errors, 12 invalid as-set names,
// 17 invalid route-set names).
type ParseError struct {
	Source string `json:"source,omitempty"`
	Object string `json:"object,omitempty"`
	Class  string `json:"class,omitempty"`
	Kind   string `json:"kind"` // "syntax", "invalid-as-set-name", "invalid-route-set-name", ...
	Msg    string `json:"msg"`
}

func (e ParseError) String() string {
	return fmt.Sprintf("%s %s %s: %s: %s", e.Source, e.Class, e.Object, e.Kind, e.Msg)
}

// AutNum is a parsed aut-num object: the AS's import and export policy.
type AutNum struct {
	ASN     ASN    `json:"asn"`
	Name    string `json:"name,omitempty"` // as-name
	Imports []Rule `json:"imports,omitempty"`
	Exports []Rule `json:"exports,omitempty"`
	// Defaults holds the default/mp-default attributes (RFC 2622
	// section 6.5): where the AS points its default route.
	Defaults []DefaultRule `json:"defaults,omitempty"`
	// MemberOfs lists as-sets this AS claims membership of (the
	// "members by reference" mechanism; effective only if the set's
	// mbrs-by-ref names this object's maintainer or ANY).
	MemberOfs []string `json:"member_ofs,omitempty"`
	MntBys    []string `json:"mnt_bys,omitempty"`
	Source    string   `json:"source,omitempty"`
}

// DefaultRule is one default/mp-default attribute: "to <peering>
// [action <actions>] [networks <filter>]".
type DefaultRule struct {
	MP      bool     `json:"mp,omitempty"`
	Peering Peering  `json:"peering"`
	Actions []Action `json:"actions,omitempty"`
	// Networks restricts the default to a set of destinations; nil
	// means ANY.
	Networks *Filter `json:"networks,omitempty"`
	Raw      string  `json:"raw,omitempty"`
}

// Rule is one import/export/mp-import/mp-export attribute, decomposed.
type Rule struct {
	// Dir is the rule direction: DirImport or DirExport.
	Dir Direction `json:"dir"`
	// MP records whether the rule came from an mp- attribute.
	MP bool `json:"mp,omitempty"`
	// Protocol and IntoProtocol carry the optional "protocol X into Y"
	// clause, uninterpreted.
	Protocol     string `json:"protocol,omitempty"`
	IntoProtocol string `json:"into_protocol,omitempty"`
	// Expr is the policy expression tree (terms combined with
	// EXCEPT/REFINE).
	Expr *PolicyExpr `json:"expr"`
	// Raw preserves the original attribute value for diagnostics.
	Raw string `json:"raw,omitempty"`
}

// Direction distinguishes import from export rules.
type Direction uint8

const (
	// DirImport marks an import/mp-import rule.
	DirImport Direction = iota
	// DirExport marks an export/mp-export rule.
	DirExport
)

// String renders the direction.
func (d Direction) String() string {
	if d == DirExport {
		return "export"
	}
	return "import"
}

// MarshalText implements encoding.TextMarshaler.
func (d Direction) MarshalText() ([]byte, error) { return []byte(d.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (d *Direction) UnmarshalText(b []byte) error {
	switch string(b) {
	case "import":
		*d = DirImport
	case "export":
		*d = DirExport
	default:
		return fmt.Errorf("ir: bad direction %q", b)
	}
	return nil
}

// PolicyKind discriminates PolicyExpr nodes.
type PolicyKind uint8

const (
	// PolicyTerm is a leaf: a list of policy factors.
	PolicyTerm PolicyKind = iota
	// PolicyExcept composes Left EXCEPT Right (RFC 2622 section 6.6:
	// the right side takes precedence for routes it matches).
	PolicyExcept
	// PolicyRefine composes Left REFINE Right (a route must be accepted
	// by both sides; attributes from both apply).
	PolicyRefine
)

var policyKindNames = [...]string{"term", "except", "refine"}

// String renders the kind.
func (k PolicyKind) String() string {
	if int(k) < len(policyKindNames) {
		return policyKindNames[k]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (k PolicyKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *PolicyKind) UnmarshalText(b []byte) error {
	for i, n := range policyKindNames {
		if n == string(b) {
			*k = PolicyKind(i)
			return nil
		}
	}
	return fmt.Errorf("ir: bad policy kind %q", b)
}

// PolicyExpr is a node in a structured-policy expression tree.
type PolicyExpr struct {
	Kind PolicyKind `json:"kind"`
	// AFI restricts this node (RPSLng allows "EXCEPT afi ipv4 {...}").
	// Zero means inherit from the enclosing rule.
	AFI AFI `json:"afi,omitempty"`
	// Factors is populated for PolicyTerm nodes.
	Factors []PolicyFactor `json:"factors,omitempty"`
	// Left and Right are populated for except/refine nodes.
	Left  *PolicyExpr `json:"left,omitempty"`
	Right *PolicyExpr `json:"right,omitempty"`
}

// AllFactors yields every factor of the tree in pre-order: a node's
// own Factors, then those under Left, then those under Right. A nil
// tree yields nothing.
func (e *PolicyExpr) AllFactors() iter.Seq[*PolicyFactor] {
	return func(yield func(*PolicyFactor) bool) { e.factors(yield) }
}

// factors is AllFactors' walk; it reports whether yield asked for more.
func (e *PolicyExpr) factors(yield func(*PolicyFactor) bool) bool {
	if e == nil {
		return true
	}
	for i := range e.Factors {
		if !yield(&e.Factors[i]) {
			return false
		}
	}
	return e.Left.factors(yield) && e.Right.factors(yield)
}

// PolicyFactor is "<peering-action>... accept|announce <filter>".
type PolicyFactor struct {
	Peerings []PeeringAction `json:"peerings"`
	Filter   *Filter         `json:"filter"`
}

// PeeringAction couples one peering specification with its actions.
type PeeringAction struct {
	Peering Peering  `json:"peering"`
	Actions []Action `json:"actions,omitempty"`
}

// Peering specifies the set of BGP sessions a rule applies to.
type Peering struct {
	// ASExpr is the as-expression; nil when the peering is a
	// peering-set reference.
	ASExpr *ASExpr `json:"as_expr,omitempty"`
	// PeeringSet names a peering-set when the peering is a reference.
	PeeringSet string `json:"peering_set,omitempty"`
	// RemoteRouter and LocalRouter carry router expressions verbatim;
	// route verification matches AS-level peerings only, like the paper.
	RemoteRouter string `json:"remote_router,omitempty"`
	LocalRouter  string `json:"local_router,omitempty"`
}

// ASExprKind discriminates ASExpr nodes.
type ASExprKind uint8

const (
	// ASExprNum is a single AS number.
	ASExprNum ASExprKind = iota
	// ASExprSet is an as-set reference.
	ASExprSet
	// ASExprAny is the AS-ANY keyword.
	ASExprAny
	// ASExprAnd intersects Left and Right.
	ASExprAnd
	// ASExprOr unions Left and Right.
	ASExprOr
	// ASExprExcept subtracts Right from Left.
	ASExprExcept
)

var asExprKindNames = [...]string{"as-num", "as-set", "any", "and", "or", "except"}

// String renders the kind.
func (k ASExprKind) String() string {
	if int(k) < len(asExprKindNames) {
		return asExprKindNames[k]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (k ASExprKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ASExprKind) UnmarshalText(b []byte) error {
	for i, n := range asExprKindNames {
		if n == string(b) {
			*k = ASExprKind(i)
			return nil
		}
	}
	return fmt.Errorf("ir: bad as-expr kind %q", b)
}

// ASExpr is an as-expression: AS numbers and as-sets combined with AND,
// OR, and EXCEPT.
type ASExpr struct {
	Kind  ASExprKind `json:"kind"`
	ASN   ASN        `json:"asn,omitempty"`
	Name  string     `json:"name,omitempty"` // as-set name, upper-cased
	Left  *ASExpr    `json:"left,omitempty"`
	Right *ASExpr    `json:"right,omitempty"`
}

// String renders the as-expression in RPSL syntax.
func (e *ASExpr) String() string {
	if e == nil {
		return "<nil>"
	}
	switch e.Kind {
	case ASExprNum:
		return e.ASN.String()
	case ASExprSet:
		return e.Name
	case ASExprAny:
		return "AS-ANY"
	case ASExprAnd:
		return "(" + e.Left.String() + " AND " + e.Right.String() + ")"
	case ASExprOr:
		return "(" + e.Left.String() + " OR " + e.Right.String() + ")"
	case ASExprExcept:
		return "(" + e.Left.String() + " EXCEPT " + e.Right.String() + ")"
	}
	return "<invalid>"
}

// Walk visits e and every descendant as-expression in pre-order.
func (e *ASExpr) Walk(visit func(*ASExpr)) {
	if e == nil {
		return
	}
	visit(e)
	e.Left.Walk(visit)
	e.Right.Walk(visit)
}

// Action is one entry of an action list, e.g. pref=100 or
// community.append(64496:3). Semantics are preserved for export but not
// interpreted during verification (matching the paper).
type Action struct {
	// Attr is the route attribute being set, e.g. "pref", "med",
	// "community", "aspath".
	Attr string `json:"attr"`
	// Op is the operator: "=", ".=", or a method name like "append",
	// "delete", "prepend" when the action is a method call.
	Op string `json:"op,omitempty"`
	// Value is the raw right-hand side or argument list.
	Value string `json:"value,omitempty"`
}

// String renders the action in RPSL-ish syntax.
func (a Action) String() string {
	switch a.Op {
	case "=", ".=":
		return a.Attr + " " + a.Op + " " + a.Value
	case "":
		return a.Attr
	default:
		return a.Attr + "." + a.Op + "(" + a.Value + ")"
	}
}

// AsSet is a parsed as-set object.
type AsSet struct {
	Name string `json:"name"`
	// MemberASNs and MemberSets are the direct members.
	MemberASNs []ASN    `json:"member_asns,omitempty"`
	MemberSets []string `json:"member_sets,omitempty"`
	// MbrsByRef lists maintainers whose objects may join by reference,
	// or the single element "ANY".
	MbrsByRef []string `json:"mbrs_by_ref,omitempty"`
	MntBys    []string `json:"mnt_bys,omitempty"`
	Source    string   `json:"source,omitempty"`
	// ContainsAnyKeyword flags the anomaly of the reserved word ANY
	// appearing among members (the paper found 3 such sets).
	ContainsAnyKeyword bool `json:"contains_any,omitempty"`
}

// RouteSetMemberKind discriminates route-set members.
type RouteSetMemberKind uint8

const (
	// RSMemberPrefix is an address prefix with optional range operator.
	RSMemberPrefix RouteSetMemberKind = iota
	// RSMemberSet is a route-set (or as-set per RFC) reference with
	// optional range operator.
	RSMemberSet
	// RSMemberASN means all routes originated by the AS.
	RSMemberASN
)

var rsMemberKindNames = [...]string{"prefix", "set", "asn"}

// String renders the kind.
func (k RouteSetMemberKind) String() string {
	if int(k) < len(rsMemberKindNames) {
		return rsMemberKindNames[k]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (k RouteSetMemberKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *RouteSetMemberKind) UnmarshalText(b []byte) error {
	for i, n := range rsMemberKindNames {
		if n == string(b) {
			*k = RouteSetMemberKind(i)
			return nil
		}
	}
	return fmt.Errorf("ir: bad route-set member kind %q", b)
}

// RouteSetMember is one member of a route-set.
type RouteSetMember struct {
	Kind   RouteSetMemberKind `json:"kind"`
	Prefix prefix.Range       `json:"prefix,omitempty"`
	Name   string             `json:"name,omitempty"`
	ASN    ASN                `json:"asn,omitempty"`
	Op     prefix.RangeOp     `json:"op,omitempty"`
}

// RouteSet is a parsed route-set object.
type RouteSet struct {
	Name      string           `json:"name"`
	Members   []RouteSetMember `json:"members,omitempty"`
	MbrsByRef []string         `json:"mbrs_by_ref,omitempty"`
	MntBys    []string         `json:"mnt_bys,omitempty"`
	Source    string           `json:"source,omitempty"`
}

// PeeringSet is a parsed peering-set object.
type PeeringSet struct {
	Name     string    `json:"name"`
	Peerings []Peering `json:"peerings,omitempty"`
	Source   string    `json:"source,omitempty"`
}

// FilterSet is a parsed filter-set object.
type FilterSet struct {
	Name   string  `json:"name"`
	Filter *Filter `json:"filter"`
	Source string  `json:"source,omitempty"`
}

// InetRtr is a parsed inet-rtr object: a router with its interface
// addresses, local AS, and BGP peers (RFC 2622 section 9). Router
// expressions in peerings may reference these by DNS name.
type InetRtr struct {
	Name    string   `json:"name"`
	LocalAS ASN      `json:"local_as,omitempty"`
	IfAddrs []string `json:"ifaddrs,omitempty"`
	Peers   []string `json:"peers,omitempty"`
	Source  string   `json:"source,omitempty"`
}

// RtrSet is a parsed rtr-set object: a set of routers referenced from
// router expressions.
type RtrSet struct {
	Name string `json:"name"`
	// Members holds inet-rtr names, rtr-set names, and IP addresses,
	// verbatim.
	Members []string `json:"members,omitempty"`
	Source  string   `json:"source,omitempty"`
}

// RouteObject is a parsed route or route6 object: a prefix and the AS
// expected to originate it.
type RouteObject struct {
	Prefix    prefix.Prefix `json:"prefix"`
	Origin    ASN           `json:"origin"`
	MemberOfs []string      `json:"member_ofs,omitempty"`
	MntBys    []string      `json:"mnt_bys,omitempty"`
	Source    string        `json:"source,omitempty"`
}

// SortedAutNums returns the ASNs with aut-num objects in ascending
// order (for deterministic iteration in reports and tests).
func (x *IR) SortedAutNums() []ASN {
	out := make([]ASN, 0, len(x.AutNums))
	for a := range x.AutNums {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RuleCount returns the total number of import plus export rules for an
// aut-num (each attribute counts as one rule, as in the paper).
func (a *AutNum) RuleCount() int { return len(a.Imports) + len(a.Exports) }

// Rules yields the aut-num's rules, imports then exports, each in
// attribute order; Rule.Dir tells the two apart. A nil aut-num yields
// nothing.
func (a *AutNum) Rules() iter.Seq[*Rule] {
	return func(yield func(*Rule) bool) {
		if a == nil {
			return
		}
		for _, rules := range [2][]Rule{a.Imports, a.Exports} {
			for i := range rules {
				if !yield(&rules[i]) {
					return
				}
			}
		}
	}
}
