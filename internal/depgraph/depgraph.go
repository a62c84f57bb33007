// Package depgraph tracks which IRR objects each compiled verification
// program depends on, and answers the reverse question — given a set of
// touched objects (an NRTM journal's delta), which programs and routes
// must be re-verified.
//
// Dependencies are recorded during program compilation
// (internal/verify/compile.go): every set name resolved, every route
// table captured, every filter-set inlined contributes a Key. The
// closure is complete at compile time — a program that references
// as-set A whose members reference as-set B records both A and B, so
// invalidation never needs to expand closures itself: a journal that
// changes B touches Key{KindAsSet, "B"} directly.
//
// Keys deliberately name objects whether or not they exist: a program
// that bakes an "unrecorded as-set" outcome still depends on that name,
// because a later ADD of the set must invalidate the baked decision.
package depgraph

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// Kind discriminates dependency keys.
type Kind uint8

const (
	// KindAutNum is an aut-num object (policy rules, member-of claims).
	KindAutNum Kind = iota
	// KindAsSet is an as-set's flattened membership.
	KindAsSet
	// KindRouteSet is a route-set's flattened prefix table and origins.
	KindRouteSet
	// KindFilterSet is a filter-set body (inlined at compile time).
	KindFilterSet
	// KindPeeringSet is a peering-set body (expanded at compile time).
	KindPeeringSet
	// KindRoutes is the set of route objects originated by one AS (its
	// route table). FilterASN captures it at compile time; PeerAS
	// filters read it at run time for the route's path ASes.
	KindRoutes
	// KindPrefix is the origin set of one exact prefix (OriginsOf),
	// read at run time by the Export Self relaxation.
	KindPrefix
)

var kindNames = [...]string{
	"aut-num", "as-set", "route-set", "filter-set", "peering-set", "routes", "prefix",
}

// String renders the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Key identifies one object (or derived index entry) a program or
// route depends on. Exactly one of ASN, Name, Pfx is meaningful,
// selected by Kind; the zero values of the others keep Key comparable
// and usable as a map key.
type Key struct {
	Kind Kind
	ASN  ir.ASN        // KindAutNum, KindRoutes
	Name string        // the set kinds
	Pfx  prefix.Prefix // KindPrefix
}

// AutNumKey returns the key for an aut-num object.
func AutNumKey(asn ir.ASN) Key { return Key{Kind: KindAutNum, ASN: asn} }

// AsSetKey returns the key for an as-set's membership.
func AsSetKey(name string) Key { return Key{Kind: KindAsSet, Name: name} }

// RouteSetKey returns the key for a route-set's table and origins.
func RouteSetKey(name string) Key { return Key{Kind: KindRouteSet, Name: name} }

// FilterSetKey returns the key for a filter-set body.
func FilterSetKey(name string) Key { return Key{Kind: KindFilterSet, Name: name} }

// PeeringSetKey returns the key for a peering-set body.
func PeeringSetKey(name string) Key { return Key{Kind: KindPeeringSet, Name: name} }

// RoutesKey returns the key for the route objects originated by an AS.
func RoutesKey(asn ir.ASN) Key { return Key{Kind: KindRoutes, ASN: asn} }

// PrefixKey returns the key for one exact prefix's origin set.
func PrefixKey(p prefix.Prefix) Key { return Key{Kind: KindPrefix, Pfx: p} }

// String renders the key as "kind:operand", e.g. "aut-num:AS64500",
// "as-set:AS-FOO", "prefix:10.0.0.0/8".
func (k Key) String() string {
	switch k.Kind {
	case KindAutNum, KindRoutes:
		return fmt.Sprintf("%s:AS%d", k.Kind, uint32(k.ASN))
	case KindPrefix:
		return k.Kind.String() + ":" + k.Pfx.String()
	default:
		return k.Kind.String() + ":" + k.Name
	}
}

// Compare orders keys deterministically (kind, then operand).
func Compare(a, b Key) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.ASN != b.ASN {
		if a.ASN < b.ASN {
			return -1
		}
		return 1
	}
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return strings.Compare(a.Pfx.String(), b.Pfx.String())
}

// SortKeys sorts keys in Compare order.
func SortKeys(keys []Key) { slices.SortFunc(keys, Compare) }

// Stats is a point-in-time size summary of the graph.
type Stats struct {
	// Programs is the number of registered programs (forward entries).
	Programs int
	// Keys is the number of distinct dependency keys with at least one
	// dependent program.
	Keys int
	// Edges is the total number of (key, program) dependency pairs.
	Edges int
}

// Graph is the reverse dependency index: object key → the compiled
// programs (by aut-num ASN) that depend on it. It also keeps the
// forward key list per program so invalidation can retract a program's
// edges before it is recompiled against new data.
//
// Graph is safe for concurrent use: VerifyAll workers register
// programs as they compile them.
type Graph struct {
	mu         sync.Mutex
	dependents map[Key]map[ir.ASN]struct{}
	forward    map[ir.ASN][]Key
	edges      int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		dependents: make(map[Key]map[ir.ASN]struct{}),
		forward:    make(map[ir.ASN][]Key),
	}
}

// SetProgram registers (or replaces) the dependency keys of the
// program compiled for asn.
func (g *Graph) SetProgram(asn ir.ASN, keys []Key) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.removeLocked(asn)
	g.forward[asn] = keys
	g.edges += len(keys)
	for _, k := range keys {
		deps := g.dependents[k]
		if deps == nil {
			deps = make(map[ir.ASN]struct{})
			g.dependents[k] = deps
		}
		deps[asn] = struct{}{}
	}
}

// RemoveProgram retracts a program's edges (it was invalidated or its
// aut-num was deleted). The program re-registers when recompiled.
func (g *Graph) RemoveProgram(asn ir.ASN) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.removeLocked(asn)
}

func (g *Graph) removeLocked(asn ir.ASN) {
	old, ok := g.forward[asn]
	if !ok {
		return
	}
	delete(g.forward, asn)
	g.edges -= len(old)
	for _, k := range old {
		deps := g.dependents[k]
		delete(deps, asn)
		if len(deps) == 0 {
			delete(g.dependents, k)
		}
	}
}

// Dependents returns the ASNs of every registered program that depends
// on at least one touched key, sorted.
func (g *Graph) Dependents(touched []Key) []ir.ASN {
	g.mu.Lock()
	defer g.mu.Unlock()
	seen := make(map[ir.ASN]struct{})
	for _, k := range touched {
		for asn := range g.dependents[k] {
			seen[asn] = struct{}{}
		}
	}
	out := make([]ir.ASN, 0, len(seen))
	for asn := range seen {
		out = append(out, asn)
	}
	slices.Sort(out)
	return out
}

// Reset drops every registration (a full re-verify starts over).
func (g *Graph) Reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.dependents = make(map[Key]map[ir.ASN]struct{})
	g.forward = make(map[ir.ASN][]Key)
	g.edges = 0
}

// Stats returns current graph sizes.
func (g *Graph) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{Programs: len(g.forward), Keys: len(g.dependents), Edges: g.edges}
}
