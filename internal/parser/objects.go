package parser

import (
	"fmt"
	"strings"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/rpsl"
)

// builder decomposes raw RPSL objects into typed IR values, appended
// to flat in encounter order. It resolves no duplicates: whether an
// object is the first definition of its name can only be known across
// the whole feed, so that is the merge's. Parse errors and per-source
// class counts accumulate on x.
type builder struct {
	x    *ir.IR
	flat FlatObjects
	cur  cursor // every policy value is lexed into its one token buffer
}

// FlatObjects holds one chunk's parsed objects in encounter order,
// without duplicate resolution.
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

// addError records a parse error.
func (b *builder) addError(obj *rpsl.Object, kind, format string, args ...any) {
	b.x.Errors = append(b.x.Errors, ir.ParseError{
		Source: obj.Source,
		Object: obj.Name,
		Class:  obj.Class,
		Kind:   kind,
		Msg:    fmt.Sprintf(format, args...),
	})
}

// add decomposes one raw RPSL object. Non-routing classes are counted
// and otherwise ignored.
func (b *builder) add(obj *rpsl.Object) {
	b.x.CountObject(obj.Source, obj.Class)
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

func (b *builder) addAutNum(obj *rpsl.Object) {
	asn, err := ir.ParseASN(obj.Name)
	if err != nil {
		b.addError(obj, "syntax", "bad aut-num name: %v", err)
		return
	}
	an := &ir.AutNum{ASN: asn, Source: obj.Source}
	if name, ok := obj.Get("as-name"); ok {
		an.Name = name
	}
	an.MemberOfs = splitList(obj, "member-of")
	an.MntBys = splitList(obj, "mnt-by")

	an.Imports = b.parseRules(obj, ir.DirImport, "import", "mp-import")
	an.Exports = b.parseRules(obj, ir.DirExport, "export", "mp-export")
	for _, key := range []string{"default", "mp-default"} {
		mp := key == "mp-default"
		for val := range obj.Values(key) {
			d, err := parseDefaultRule(&b.cur, mp, val)
			if err != nil {
				b.addError(obj, "syntax", "%s: %v (in %q)", key, err, truncateVal(val))
				continue
			}
			an.Defaults = append(an.Defaults, d)
		}
	}
	b.flat.AutNums = append(b.flat.AutNums, an)
}

// parseRules parses the rules of obj's key attributes, then those of
// its mpKey ones, into one list laid out at its exact size (the IR
// keeps it), nil when none parses.
func (b *builder) parseRules(obj *rpsl.Object, dir ir.Direction, key, mpKey string) []ir.Rule {
	n := 0
	for _, a := range obj.Attrs {
		if a.Key == key || a.Key == mpKey {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	rules := make([]ir.Rule, 0, n)
	for _, k := range [...]string{key, mpKey} {
		for val := range obj.Values(k) {
			rule, err := parseRule(&b.cur, dir, k == mpKey, val)
			if err != nil {
				b.addError(obj, "syntax", "%s: %v (in %q)", k, err, truncateVal(val))
				continue
			}
			rules = append(rules, rule)
		}
	}
	if len(rules) == 0 {
		return nil
	}
	return rules
}

func (b *builder) addAsSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidAsSetName(name) {
		b.addError(obj, "invalid-as-set-name", "invalid as-set name %q", name)
		// Keep parsing: tools must still see the object to diagnose
		// references to it.
	}
	set := &ir.AsSet{Name: name, Source: obj.Source}
	set.MbrsByRef = splitList(obj, "mbrs-by-ref")
	set.MntBys = splitList(obj, "mnt-by")
	members := splitList(obj, "members", "mp-members")
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
			b.addError(obj, "syntax", "bad as-set member %q", m)
		}
	}
	b.flat.AsSets = append(b.flat.AsSets, set)
}

func (b *builder) addRouteSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidRouteSetName(name) {
		b.addError(obj, "invalid-route-set-name", "invalid route-set name %q", name)
	}
	set := &ir.RouteSet{Name: name, Source: obj.Source}
	set.MbrsByRef = splitList(obj, "mbrs-by-ref")
	set.MntBys = splitList(obj, "mnt-by")
	members := splitList(obj, "members", "mp-members")
	for _, m := range members {
		member, err := parseRouteSetMember(m)
		if err != nil {
			b.addError(obj, "syntax", "bad route-set member %q: %v", m, err)
			continue
		}
		set.Members = append(set.Members, member)
	}
	b.flat.RouteSets = append(b.flat.RouteSets, set)
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

func (b *builder) addPeeringSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidPeeringSetName(name) {
		b.addError(obj, "invalid-peering-set-name", "invalid peering-set name %q", name)
	}
	set := &ir.PeeringSet{Name: name, Source: obj.Source}
	c := &b.cur
	for _, key := range [...]string{"peering", "mp-peering"} {
		for v := range obj.Values(key) {
			if err := c.lex(v); err != nil {
				b.addError(obj, "syntax", "bad peering %q: %v", v, err)
				continue
			}
			p, ok := parsePeering(c)
			if !ok || !c.atEOF() {
				b.addError(obj, "syntax", "bad peering %q", v)
				continue
			}
			set.Peerings = append(set.Peerings, p)
		}
	}
	b.flat.PeeringSets = append(b.flat.PeeringSets, set)
}

func (b *builder) addFilterSet(obj *rpsl.Object) {
	name := obj.Name
	if !ValidFilterSetName(name) {
		b.addError(obj, "invalid-filter-set-name", "invalid filter-set name %q", name)
	}
	set := &ir.FilterSet{Name: name, Source: obj.Source}
	val, ok := obj.Get("filter")
	if !ok {
		val, ok = obj.Get("mp-filter")
	}
	if !ok {
		b.addError(obj, "syntax", "filter-set without filter attribute")
		set.Filter = unsupportedFilter("")
	} else {
		f, err := parseFilter(&b.cur, val)
		if err != nil {
			b.addError(obj, "syntax", "bad filter %q: %v", val, err)
			f = unsupportedFilter(val)
		}
		set.Filter = f
	}
	b.flat.FilterSets = append(b.flat.FilterSets, set)
}

func (b *builder) addRoute(obj *rpsl.Object) {
	p, err := prefix.Parse(obj.Name)
	if err != nil {
		b.addError(obj, "syntax", "bad route prefix: %v", err)
		return
	}
	if obj.Class == "route" && !p.IsIPv4() {
		b.addError(obj, "syntax", "route object with non-IPv4 prefix %s", p)
		return
	}
	if obj.Class == "route6" && !p.IsIPv6() {
		b.addError(obj, "syntax", "route6 object with non-IPv6 prefix %s", p)
		return
	}
	originStr, ok := obj.Get("origin")
	if !ok {
		b.addError(obj, "syntax", "route object without origin")
		return
	}
	origin, err := ir.ParseASN(originStr)
	if err != nil {
		b.addError(obj, "syntax", "bad origin %q", originStr)
		return
	}
	ro := &ir.RouteObject{
		Prefix:    p,
		Origin:    origin,
		MemberOfs: splitList(obj, "member-of"),
		MntBys:    splitList(obj, "mnt-by"),
		Source:    obj.Source,
	}
	b.flat.Routes = append(b.flat.Routes, ro)
}

// splitList splits the values of obj's attributes with the given
// keys, key by key and each in file order, on commas and whitespace
// into one upper-cased list, dropping empties. It tolerates the broken
// comma lists found in the wild ("AS1,,AS2", trailing commas). The
// list is laid out at its exact size, nil when empty: the IR keeps it.
func splitList(obj *rpsl.Object, keys ...string) []string {
	n := 0
	eachField(obj, keys, func(string) { n++ })
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	eachField(obj, keys, func(f string) { out = append(out, strings.ToUpper(f)) })
	return out
}

// eachField calls fn with every non-empty field, trimmed, of the values
// of obj's attributes with the given keys, cut at commas, spaces and
// tabs.
func eachField(obj *rpsl.Object, keys []string, fn func(string)) {
	for _, key := range keys {
		for _, a := range obj.Attrs {
			if a.Key != key {
				continue
			}
			for s := a.Value; s != ""; {
				f := s
				if i := strings.IndexAny(s, ", \t"); i >= 0 {
					f, s = s[:i], s[i+1:]
				} else {
					s = ""
				}
				if f = strings.TrimSpace(f); f != "" {
					fn(f)
				}
			}
		}
	}
}

func truncateVal(s string) string {
	if len(s) > 60 {
		return s[:60] + "..."
	}
	return s
}
