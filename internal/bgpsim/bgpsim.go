// Package bgpsim simulates BGP route propagation over a synthetic AS
// topology following the Gao–Rexford model (customer routes preferred
// over peer routes over provider routes; valley-free exports), places
// route collectors, and reads/writes the resulting route dumps. It is
// the substrate standing in for the paper's 779 M routes from 60 RIPE
// RIS and RouteViews collectors.
package bgpsim

import (
	"runtime"
	"slices"
	"sort"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/topology"
)

// routeClass orders route preference: customer > peer > provider.
type routeClass uint8

const (
	classNone routeClass = iota
	classProvider
	classPeer
	classCustomer
)

// Simulator computes Gao–Rexford best paths over a topology.
type Simulator struct {
	Topo *topology.Topology
	// order caches a deterministic AS order.
	order []ir.ASN
	// asn numbers every AS of order and of the relationship database in
	// ascending ASN order, and id inverts it, so comparing two numbers
	// compares their ASNs. providers, peers and customers are the
	// relationship lists over those numbers.
	asn                         []ir.ASN
	id                          map[ir.ASN]int32
	providers, peers, customers [][]int32
}

// NewSimulator creates a simulator over a topology, whose AS order and
// relationships it freezes.
func NewSimulator(t *topology.Topology) *Simulator {
	asn := slices.Concat(t.Order, t.Rels.ASes())
	slices.Sort(asn)
	asn = slices.Compact(asn)
	s := &Simulator{Topo: t, order: t.Order, asn: asn, id: make(map[ir.ASN]int32, len(asn))}
	for i, a := range asn {
		s.id[a] = int32(i)
	}
	dense := func(list func(ir.ASN) []ir.ASN) [][]int32 {
		out := make([][]int32, len(asn))
		for i, a := range asn {
			for _, b := range list(a) {
				out[i] = append(out[i], s.id[b])
			}
		}
		return out
	}
	s.providers, s.peers, s.customers = dense(t.Rels.Providers), dense(t.Rels.Peers), dense(t.Rels.Customers)
	return s
}

// PathsTo computes, for every AS, its best AS-path to destination d
// (the path starts at the AS and ends with d). ASes with no route map
// to nil. It is solver.solve's answer for every AS; CollectRoutes asks
// the same solver for the collector peers only.
func (s *Simulator) PathsTo(d ir.ASN) map[ir.ASN][]ir.ASN {
	id, ok := s.id[d]
	if !ok {
		return map[ir.ASN][]ir.ASN{d: {d}}
	}
	sv := s.newSolver()
	sv.solve(id)
	paths := make([][]ir.ASN, len(sv.touched))
	sv.collect(sv.touched, paths)
	out := make(map[ir.ASN][]ir.ASN, len(paths))
	for k, u := range sv.touched {
		out[s.asn[u]] = paths[k]
	}
	return out
}

// solver holds one worker's state while it computes best routes toward
// one destination at a time. Every array is indexed by AS number: an
// AS's route class (classNone: no route yet), path length and next hop,
// and phase 2's best peer route (peerLen 0: none). touched and peered
// list the ASes set, which is all the next destination resets.
type solver struct {
	s                *Simulator
	d                int32
	class            []routeClass
	length, hop      []int32
	peerLen, peerHop []int32
	touched, peered  []int32
	frontier, next   []int32
}

func (s *Simulator) newSolver() *solver {
	n := len(s.asn)
	return &solver{
		s:       s,
		class:   make([]routeClass, n),
		length:  make([]int32, n),
		hop:     make([]int32, n),
		peerLen: make([]int32, n),
		peerHop: make([]int32, n),
	}
}

// set gives u a route of class c and length l via next hop h.
func (sv *solver) set(u int32, c routeClass, l, h int32) {
	if sv.class[u] == classNone {
		sv.touched = append(sv.touched, u)
	}
	sv.class[u], sv.length[u], sv.hop[u] = c, l, h
}

// solve computes every AS's best route toward d, preferring customer
// routes over peer routes over provider routes, then the shorter path,
// then the lower next hop. It runs the classic three-phase propagation:
//
//  1. Customer routes climb provider links (BFS from d upward).
//  2. ASes with customer routes (or d itself) export to peers.
//  3. Routes descend provider-to-customer links.
func (sv *solver) solve(d int32) {
	s := sv.s
	for _, u := range sv.touched {
		sv.class[u] = classNone
	}
	sv.touched, sv.d = sv.touched[:0], d
	sv.set(d, classCustomer, 0, d)

	// Phase 1: climb provider links, BFS by path length so shorter
	// customer routes win.
	frontier, next := append(sv.frontier[:0], d), sv.next
	for length := int32(1); len(frontier) > 0; length++ {
		next = next[:0]
		slices.Sort(frontier)
		for _, u := range frontier {
			for _, p := range s.providers[u] {
				switch {
				case sv.class[p] == classNone:
					sv.set(p, classCustomer, length, u)
					next = append(next, p)
				case length < sv.length[p] || length == sv.length[p] && u < sv.hop[p]:
					sv.set(p, classCustomer, length, u)
				}
			}
		}
		frontier, next = next, frontier
	}

	// Phase 2: peer exports from ASes holding customer routes (or d),
	// the minimum by (length, next hop) per peer, in any order.
	sv.peered = sv.peered[:0]
	for _, u := range sv.touched {
		l := sv.length[u] + 1
		for _, p := range s.peers[u] {
			switch {
			case sv.peerLen[p] == 0:
				sv.peered = append(sv.peered, p)
				sv.peerLen[p], sv.peerHop[p] = l, u
			case l < sv.peerLen[p] || l == sv.peerLen[p] && u < sv.peerHop[p]:
				sv.peerLen[p], sv.peerHop[p] = l, u
			}
		}
	}
	for _, p := range sv.peered {
		if sv.class[p] < classPeer {
			sv.set(p, classPeer, sv.peerLen[p], sv.peerHop[p])
		}
		sv.peerLen[p] = 0
	}

	// Phase 3: descend provider->customer links, BFS by length over
	// ASes that do not already hold a better route. A level keeps its
	// duplicates, and each AS reads its own length when it comes up.
	frontier = append(frontier[:0], sv.touched...)
	for len(frontier) > 0 {
		next = next[:0]
		slices.Sort(frontier)
		for _, u := range frontier {
			l := sv.length[u] + 1
			for _, c := range s.customers[u] {
				switch {
				case sv.class[c] == classNone:
					sv.set(c, classProvider, l, u)
					next = append(next, c)
				case sv.class[c] == classProvider && (l < sv.length[c] || l == sv.length[c] && u < sv.hop[c]):
					sv.set(c, classProvider, l, u)
					next = append(next, c)
				}
			}
		}
		frontier, next = next, frontier
	}
	sv.frontier, sv.next = frontier, next
}

// pathLen returns the number of ASes on u's path to the destination, 0
// if u has none. The guard against next-hop loops should never fire.
func (sv *solver) pathLen(u int32) int {
	n := 1
	for cur := u; cur != sv.d; cur = sv.hop[cur] {
		if sv.class[cur] == classNone || n > len(sv.touched)+1 {
			return 0
		}
		n++
	}
	return n
}

// collect sets paths[k] to the path of AS peers[k] (-1: outside the
// graph), nil where there is none. All the paths share one allocation,
// each capped to its length.
func (sv *solver) collect(peers []int32, paths [][]ir.ASN) {
	total := 0
	for _, u := range peers {
		if u >= 0 {
			total += sv.pathLen(u)
		}
	}
	buf := make([]ir.ASN, total)
	for k, u := range peers {
		n := 0
		if u >= 0 {
			n = sv.pathLen(u)
		}
		if n == 0 {
			continue
		}
		path := buf[:n:n]
		for i := range path {
			path[i], u = sv.s.asn[u], sv.hop[u]
		}
		paths[k], buf = path, buf[n:]
	}
}

// Route is one observed BGP route: a prefix and the AS-path seen at a
// collector (path[0] is the collector peer, the last AS is the origin,
// unless the route carries an AS-set).
type Route struct {
	Prefix prefix.Prefix
	Path   []ir.ASN
	// HasASSet marks routes whose path contains a BGP AS-set
	// (aggregation artifact); the paper ignores these (0.03%).
	HasASSet bool
	// Communities carries the route's BGP community attributes as
	// observed at the collector. Intermediate ASes may strip them,
	// which is exactly why the paper declines to verify community
	// filters; the optional community-interpretation mode uses them.
	Communities []Community
}

// Collector is a named route collector with its peer ASes.
type Collector struct {
	Name  string
	Peers []ir.ASN
}

// CollectRoutes computes the routes each collector observes: for every
// collector peer and every origin AS, the peer's best path to the
// origin, expanded to all the origin's prefixes.
//
// The origins are cut into GOMAXPROCS contiguous ranges of Topo.Order,
// each solved on its own goroutine with its own solver, and only the
// collector peers' paths are built. The routes are then assembled and
// mutated serially in Topo.Order, so the output is the same at any
// GOMAXPROCS.
//
// Mutators (prepending, AS-set injection) are applied by the caller via
// opts; see Options.
func (s *Simulator) CollectRoutes(collectors []Collector, opts Options) []Route {
	opts.fill()
	// Number the distinct peers: slots lists the number of every
	// collector's every peer in collector order, and peers maps a number
	// to the peer's AS number.
	slot := make(map[ir.ASN]int)
	var peers []int32
	var slots []int
	for _, c := range collectors {
		for _, p := range c.Peers {
			k, ok := slot[p]
			if !ok {
				k, slot[p] = len(peers), len(peers)
				id, in := s.id[p]
				if !in {
					id = -1
				}
				peers = append(peers, id)
			}
			slots = append(slots, k)
		}
	}
	var origins []ir.ASN
	for _, origin := range s.order {
		if len(s.Topo.ASes[origin].Prefixes) > 0 {
			origins = append(origins, origin)
		}
	}

	// paths[i*len(peers)+k] is peer k's path to origin i.
	paths := make([][]ir.ASN, len(origins)*len(peers))
	parts := make([]originRange, min(runtime.GOMAXPROCS(0), len(origins)))
	for p := range parts {
		parts[p].lo, parts[p].hi = p*len(origins)/len(parts), (p+1)*len(origins)/len(parts)
	}
	shard.Each(parts, func(r *originRange) {
		sv := s.newSolver()
		for i := r.lo; i < r.hi; i++ {
			sv.solve(s.id[origins[i]])
			sv.collect(peers, paths[i*len(peers):(i+1)*len(peers)])
		}
	})

	n := 0
	for i, origin := range origins {
		for _, k := range slots {
			if paths[i*len(peers)+k] != nil {
				n += len(s.Topo.ASes[origin].Prefixes)
			}
		}
	}
	var routes []Route
	if n > 0 {
		routes = make([]Route, 0, n)
	}
	rng := newSplitMix(uint64(opts.Seed))
	for i, origin := range origins {
		as := s.Topo.ASes[origin]
		for _, k := range slots {
			path := paths[i*len(peers)+k]
			if path == nil {
				continue
			}
			for _, pfx := range as.Prefixes {
				r := Route{Prefix: pfx, Path: path}
				// Occasional origin prepending.
				if opts.PrependFrac > 0 && rng.float64() < opts.PrependFrac {
					times := 1 + int(rng.next()%3)
					pp := append([]ir.ASN{}, path...)
					for i := 0; i < times; i++ {
						pp = append(pp, origin)
					}
					r.Path = pp
				}
				if opts.ASSetFrac > 0 && rng.float64() < opts.ASSetFrac {
					r.HasASSet = true
				}
				// Community tagging: a small fraction of routes
				// carry the BLACKHOLE community; in-flight
				// stripping removes it before the collector with
				// the configured probability.
				if opts.CommunityFrac > 0 && rng.float64() < opts.CommunityFrac {
					if !(opts.StripCommunityFrac > 0 && rng.float64() < opts.StripCommunityFrac) {
						r.Communities = []Community{BlackholeCommunity}
					}
				}
				routes = append(routes, r)
			}
		}
	}
	return routes
}

// originRange is the origins [lo, hi) one goroutine solves.
type originRange struct{ lo, hi int }

// Options tunes route collection.
type Options struct {
	// Seed drives mutators deterministically.
	Seed int64
	// PrependFrac is the fraction of routes with origin prepending
	// (the paper strips prepending before verification).
	PrependFrac float64
	// ASSetFrac is the fraction of routes carrying BGP AS-sets, which
	// the paper ignores (0.03%).
	ASSetFrac float64
	// CommunityFrac is the fraction of routes tagged with the
	// BLACKHOLE community at the origin; StripCommunityFrac is the
	// probability an intermediate AS strips it before the collector.
	CommunityFrac      float64
	StripCommunityFrac float64
}

func (o *Options) fill() {
	if o.PrependFrac == 0 {
		o.PrependFrac = 0.05
	}
	if o.ASSetFrac == 0 {
		o.ASSetFrac = 0.0003
	}
}

// DefaultCollectors places n collectors, each peering with a mix of
// Tier-1, Tier-2 and other ASes, mirroring RIPE RIS / RouteViews
// vantage points.
func (s *Simulator) DefaultCollectors(n int) []Collector {
	rels := s.Topo.Rels
	// Rank ASes by degree, descending: big networks peer with
	// collectors most often.
	ranked := append([]ir.ASN(nil), s.order...)
	sort.Slice(ranked, func(i, j int) bool {
		di, dj := rels.Degree(ranked[i]), rels.Degree(ranked[j])
		if di != dj {
			return di > dj
		}
		return ranked[i] < ranked[j]
	})
	var collectors []Collector
	rng := newSplitMix(0xc011ec7)
	for i := 0; i < n; i++ {
		c := Collector{Name: collectorName(i)}
		// RIPE RIS and RouteViews peer with a diverse mix: a couple of
		// very large networks plus several mid-size and edge networks
		// (often IXP members). The diverse vantage points are what
		// expose peer links in observed paths.
		big := 1 + int(rng.next()%2)
		for j := 0; j < big && j < len(ranked); j++ {
			idx := int(rng.next() % uint64(min(len(ranked), 40)))
			c.Peers = appendUnique(c.Peers, ranked[idx])
		}
		diverse := 3 + int(rng.next()%4)
		for j := 0; j < diverse; j++ {
			c.Peers = appendUnique(c.Peers, s.order[int(rng.next()%uint64(len(s.order)))])
		}
		collectors = append(collectors, c)
	}
	return collectors
}

func collectorName(i int) string {
	const letters = "0123456789"
	if i < 10 {
		return "rrc0" + string(letters[i])
	}
	return "rrc" + string(letters[(i/10)%10]) + string(letters[i%10])
}

func appendUnique(s []ir.ASN, a ir.ASN) []ir.ASN {
	for _, x := range s {
		if x == a {
			return s
		}
	}
	return append(s, a)
}

// splitMix is a tiny deterministic PRNG so the simulator does not
// depend on math/rand ordering guarantees across Go versions.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed + 0x9e3779b97f4a7c15} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) float64() float64 {
	return float64(s.next()>>11) / float64(1<<53)
}
