package parser

import (
	"fmt"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/rpsl"
)

// Builder accumulates parsed objects into an IR with first-definition-
// wins semantics: callers feed dumps in IRR priority order (Table 1 of
// the paper) and an object defined in several IRRs keeps its
// highest-priority definition. Route objects are kept from all sources
// (multiplicity across IRRs is itself one of the paper's measurements).
type Builder struct {
	IR *ir.IR
	// seenRoutes deduplicates identical (prefix, origin, source) tuples.
	seenRoutes map[routeKey]bool
	// flat, when non-nil, switches the Builder to flat emission: parsed
	// objects append to these encounter-ordered lists instead of the IR
	// maps, and no duplicate resolution happens (the IR maps stay empty,
	// so the dup probes never fire). The chunk pipeline uses this mode —
	// cross-chunk duplicates can only be resolved globally, so paying
	// for chunk-local maps buys nothing.
	flat *FlatObjects
}

type routeKey struct {
	prefix prefix.Prefix
	origin ir.ASN
	source string
}

// FlatObjects holds one chunk's parsed objects in encounter order,
// without duplicate resolution. Errors and per-source class counts
// still accumulate on the Builder's IR.
type FlatObjects struct {
	AutNums     []*ir.AutNum
	AsSets      []*ir.AsSet
	RouteSets   []*ir.RouteSet
	PeeringSets []*ir.PeeringSet
	FilterSets  []*ir.FilterSet
	InetRtrs    []*ir.InetRtr
	RtrSets     []*ir.RtrSet
	Routes      []*ir.RouteObject
}

// NewBuilder creates a Builder over a fresh IR.
func NewBuilder() *Builder {
	return &Builder{IR: ir.New(), seenRoutes: make(map[routeKey]bool)}
}

// NewFlatBuilder creates a Builder in flat-emission mode; retrieve the
// parsed objects with Flat.
func NewFlatBuilder() *Builder {
	return &Builder{IR: ir.New(), flat: &FlatObjects{}}
}

// Flat returns the flat-emission lists (nil for a regular Builder).
func (b *Builder) Flat() *FlatObjects { return b.flat }

// AddError records a parse error in the IR.
func (b *Builder) AddError(obj *rpsl.Object, kind, format string, args ...any) {
	b.IR.Errors = append(b.IR.Errors, ir.ParseError{
		Source: obj.Source,
		Object: obj.Name,
		Class:  obj.Class,
		Kind:   kind,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// AddObject decomposes one raw RPSL object into the IR. Non-routing
// classes are counted and otherwise ignored.
func (b *Builder) AddObject(obj *rpsl.Object) {
	b.IR.CountObject(obj.Source, obj.Class)
	switch obj.Class {
	case "aut-num":
		b.addAutNum(obj)
	case "as-set":
		b.addAsSet(obj)
	case "route-set":
		b.addRouteSet(obj)
	case "peering-set":
		b.addPeeringSet(obj)
	case "filter-set":
		b.addFilterSet(obj)
	case "route", "route6":
		b.addRoute(obj)
	case "inet-rtr":
		b.addInetRtr(obj)
	case "rtr-set":
		b.addRtrSet(obj)
	}
}

// AddDump reads every object from one dump reader into the IR, then
// records the reader's diagnostics and, if the dump was cut short, the
// read error that did it.
func (b *Builder) AddDump(r *rpsl.Reader) {
	for obj := r.Next(); obj != nil; obj = r.Next() {
		b.AddObject(obj)
	}
	b.IR.Errors = append(b.IR.Errors, diagErrors(r.Diagnostics())...)
	if err := r.Err(); err != nil {
		b.IR.Errors = append(b.IR.Errors, ioError(r.Source(), err))
	}
}

// ioError is the parse error that stands for a dump's failed read.
func ioError(source string, err error) ir.ParseError {
	return ir.ParseError{Source: source, Kind: "io", Msg: err.Error()}
}

// diagErrors converts reader diagnostics into IR parse errors.
func diagErrors(diags []rpsl.Diagnostic) []ir.ParseError {
	if len(diags) == 0 {
		return nil
	}
	out := make([]ir.ParseError, len(diags))
	for i, d := range diags {
		out[i] = ir.ParseError{Source: d.Source, Kind: "syntax", Msg: d.Msg}
	}
	return out
}

func (b *Builder) addAutNum(obj *rpsl.Object) {
	asn, err := ir.ParseASN(obj.Name)
	if err != nil {
		b.AddError(obj, "syntax", "bad aut-num name: %v", err)
		return
	}
	if _, dup := b.IR.AutNums[asn]; dup {
		return // lower-priority duplicate
	}
	an := &ir.AutNum{ASN: asn, Source: obj.Source}
	if name, ok := obj.Get("as-name"); ok {
		an.Name = name
	}
	an.MemberOfs = splitList(strings.Join(obj.All("member-of"), ","))
	an.MntBys = splitList(strings.Join(obj.All("mnt-by"), ","))

	parseRules := func(key string, dir ir.Direction, mp bool) []ir.Rule {
		var rules []ir.Rule
		for _, val := range obj.All(key) {
			rule, err := ParseRule(dir, mp, val)
			if err != nil {
				b.AddError(obj, "syntax", "%s: %v (in %q)", key, err, truncateVal(val))
				continue
			}
			rules = append(rules, rule)
		}
		return rules
	}
	an.Imports = append(an.Imports, parseRules("import", ir.DirImport, false)...)
	an.Imports = append(an.Imports, parseRules("mp-import", ir.DirImport, true)...)
	an.Exports = append(an.Exports, parseRules("export", ir.DirExport, false)...)
	an.Exports = append(an.Exports, parseRules("mp-export", ir.DirExport, true)...)
	for _, key := range []string{"default", "mp-default"} {
		mp := key == "mp-default"
		for _, val := range obj.All(key) {
			d, err := ParseDefaultRule(mp, val)
			if err != nil {
				b.AddError(obj, "syntax", "%s: %v (in %q)", key, err, truncateVal(val))
				continue
			}
			an.Defaults = append(an.Defaults, d)
		}
	}
	if b.flat != nil {
		b.flat.AutNums = append(b.flat.AutNums, an)
		return
	}
	b.IR.AutNums[asn] = an
}

func (b *Builder) addAsSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidAsSetName(name) {
		b.AddError(obj, "invalid-as-set-name", "invalid as-set name %q", name)
		// Keep parsing: tools must still see the object to diagnose
		// references to it.
	}
	if _, dup := b.IR.AsSets[name]; dup {
		return
	}
	set := &ir.AsSet{Name: name, Source: obj.Source}
	set.MbrsByRef = splitList(strings.Join(obj.All("mbrs-by-ref"), ","))
	set.MntBys = splitList(strings.Join(obj.All("mnt-by"), ","))
	members := splitList(strings.Join(obj.All("members"), ","))
	members = append(members, splitList(strings.Join(obj.All("mp-members"), ","))...)
	for _, m := range members {
		mu := strings.ToUpper(m)
		switch {
		case mu == "ANY" || mu == "AS-ANY":
			// The reserved keyword among members: an anomaly the paper
			// found in 3 as-sets.
			set.ContainsAnyKeyword = true
		case ir.IsASN(mu):
			asn, _ := ir.ParseASN(mu)
			set.MemberASNs = append(set.MemberASNs, asn)
		case ClassifySetName(mu) == SetClassAs:
			set.MemberSets = append(set.MemberSets, mu)
		default:
			b.AddError(obj, "syntax", "bad as-set member %q", m)
		}
	}
	if b.flat != nil {
		b.flat.AsSets = append(b.flat.AsSets, set)
		return
	}
	b.IR.AsSets[name] = set
}

func (b *Builder) addRouteSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidRouteSetName(name) {
		b.AddError(obj, "invalid-route-set-name", "invalid route-set name %q", name)
	}
	if _, dup := b.IR.RouteSets[name]; dup {
		return
	}
	set := &ir.RouteSet{Name: name, Source: obj.Source}
	set.MbrsByRef = splitList(strings.Join(obj.All("mbrs-by-ref"), ","))
	set.MntBys = splitList(strings.Join(obj.All("mnt-by"), ","))
	members := splitList(strings.Join(obj.All("members"), ","))
	members = append(members, splitList(strings.Join(obj.All("mp-members"), ","))...)
	for _, m := range members {
		member, err := parseRouteSetMember(m)
		if err != nil {
			b.AddError(obj, "syntax", "bad route-set member %q: %v", m, err)
			continue
		}
		set.Members = append(set.Members, member)
	}
	if b.flat != nil {
		b.flat.RouteSets = append(b.flat.RouteSets, set)
		return
	}
	b.IR.RouteSets[name] = set
}

// parseRouteSetMember parses one route-set member: a prefix range, a
// set reference with an optional range operator (the nonstandard
// route-set^op construct the paper supports), or an AS number meaning
// "all routes originated by that AS".
func parseRouteSetMember(m string) (ir.RouteSetMember, error) {
	mu := strings.ToUpper(m)
	if strings.Contains(mu, "/") {
		r, err := prefix.ParseRange(mu)
		if err != nil {
			return ir.RouteSetMember{}, err
		}
		return ir.RouteSetMember{Kind: ir.RSMemberPrefix, Prefix: r}, nil
	}
	base, op, err := splitRangeOp(mu)
	if err != nil {
		return ir.RouteSetMember{}, err
	}
	if ir.IsASN(base) {
		asn, _ := ir.ParseASN(base)
		return ir.RouteSetMember{Kind: ir.RSMemberASN, ASN: asn, Op: op}, nil
	}
	switch ClassifySetName(base) {
	case SetClassRoute, SetClassAs:
		return ir.RouteSetMember{Kind: ir.RSMemberSet, Name: base, Op: op}, nil
	}
	return ir.RouteSetMember{}, fmt.Errorf("unrecognized member")
}

func (b *Builder) addPeeringSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidPeeringSetName(name) {
		b.AddError(obj, "invalid-peering-set-name", "invalid peering-set name %q", name)
	}
	if _, dup := b.IR.PeeringSets[name]; dup {
		return
	}
	set := &ir.PeeringSet{Name: name, Source: obj.Source}
	vals := obj.All("peering")
	vals = append(vals, obj.All("mp-peering")...)
	for _, v := range vals {
		toks, err := lex(v)
		if err != nil {
			b.AddError(obj, "syntax", "bad peering %q: %v", v, err)
			continue
		}
		c := &cursor{toks: toks}
		p, ok := parsePeering(c)
		if !ok || !c.atEOF() {
			b.AddError(obj, "syntax", "bad peering %q", v)
			continue
		}
		set.Peerings = append(set.Peerings, p)
	}
	if b.flat != nil {
		b.flat.PeeringSets = append(b.flat.PeeringSets, set)
		return
	}
	b.IR.PeeringSets[name] = set
}

func (b *Builder) addFilterSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidFilterSetName(name) {
		b.AddError(obj, "invalid-filter-set-name", "invalid filter-set name %q", name)
	}
	if _, dup := b.IR.FilterSets[name]; dup {
		return
	}
	set := &ir.FilterSet{Name: name, Source: obj.Source}
	val, ok := obj.Get("filter")
	if !ok {
		val, ok = obj.Get("mp-filter")
	}
	if !ok {
		b.AddError(obj, "syntax", "filter-set without filter attribute")
		set.Filter = unsupportedFilter("")
	} else {
		f, err := ParseFilter(val)
		if err != nil {
			b.AddError(obj, "syntax", "bad filter %q: %v", val, err)
			f = unsupportedFilter(val)
		}
		set.Filter = f
	}
	if b.flat != nil {
		b.flat.FilterSets = append(b.flat.FilterSets, set)
		return
	}
	b.IR.FilterSets[name] = set
}

func (b *Builder) addRoute(obj *rpsl.Object) {
	p, err := prefix.Parse(obj.Name)
	if err != nil {
		b.AddError(obj, "syntax", "bad route prefix: %v", err)
		return
	}
	if obj.Class == "route" && !p.IsIPv4() {
		b.AddError(obj, "syntax", "route object with non-IPv4 prefix %s", p)
		return
	}
	if obj.Class == "route6" && !p.IsIPv6() {
		b.AddError(obj, "syntax", "route6 object with non-IPv6 prefix %s", p)
		return
	}
	originStr, ok := obj.Get("origin")
	if !ok {
		b.AddError(obj, "syntax", "route object without origin")
		return
	}
	origin, err := ir.ParseASN(originStr)
	if err != nil {
		b.AddError(obj, "syntax", "bad origin %q", originStr)
		return
	}
	if b.flat == nil {
		key := routeKey{p, origin, obj.Source}
		if b.seenRoutes[key] {
			return
		}
		b.seenRoutes[key] = true
	}
	ro := &ir.RouteObject{
		Prefix:    p,
		Origin:    origin,
		MemberOfs: splitList(strings.Join(obj.All("member-of"), ",")),
		MntBys:    splitList(strings.Join(obj.All("mnt-by"), ",")),
		Source:    obj.Source,
	}
	if b.flat != nil {
		b.flat.Routes = append(b.flat.Routes, ro)
		return
	}
	b.IR.Routes = append(b.IR.Routes, ro)
}

// splitList splits an RPSL list value on commas and whitespace,
// dropping empties. It tolerates the broken comma lists found in the
// wild ("AS1,,AS2", trailing commas).
func splitList(s string) []string {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
	out := fields[:0]
	for _, f := range fields {
		f = strings.TrimSpace(f)
		if f != "" {
			out = append(out, strings.ToUpper(f))
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func truncateVal(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
