package bgpsim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/topology"
)

// diamondTopo builds a small hand-made topology:
//
//	T1a ──peer── T1b
//	 │            │
//	T2a          T2b      (customers of the Tier-1s)
//	 │            │
//	S1           S2       (stubs)
//
// plus a peer link T2a──T2b.
func diamondTopo() *topology.Topology {
	t := &topology.Topology{
		ASes: map[ir.ASN]*topology.AS{},
		Rels: asrel.New(),
	}
	add := func(asn ir.ASN, tier topology.Tier, pfx string) {
		as := &topology.AS{ASN: asn, Tier: tier}
		if pfx != "" {
			as.Prefixes = []prefix.Prefix{prefix.MustParse(pfx)}
		}
		t.ASes[asn] = as
		t.Order = append(t.Order, asn)
	}
	add(11, topology.Tier1, "11.0.0.0/16")
	add(12, topology.Tier1, "12.0.0.0/16")
	add(21, topology.Tier2, "21.0.0.0/16")
	add(22, topology.Tier2, "22.0.0.0/16")
	add(31, topology.Stub, "31.0.0.0/16")
	add(32, topology.Stub, "32.0.0.0/16")
	t.Rels.AddP2P(11, 12)
	t.Rels.AddP2C(11, 21)
	t.Rels.AddP2C(12, 22)
	t.Rels.AddP2C(21, 31)
	t.Rels.AddP2C(22, 32)
	t.Rels.AddP2P(21, 22)
	t.Rels.SetTier1(11)
	t.Rels.SetTier1(12)
	return t
}

func TestPathsToValleyFree(t *testing.T) {
	topo := diamondTopo()
	sim := NewSimulator(topo)
	paths := sim.PathsTo(31)

	// Every AS reaches the stub.
	for _, asn := range topo.Order {
		if paths[asn] == nil {
			t.Errorf("AS%d has no route to AS31", asn)
		}
	}
	// S2's path should prefer the peer link T2a--T2b over climbing to
	// the Tier-1s: 32 -> 22 -> 21 -> 31.
	want := []ir.ASN{32, 22, 21, 31}
	got := paths[32]
	if !equalPath(got, want) {
		t.Errorf("path from AS32 = %v, want %v", got, want)
	}
	// T1b must not route through its peer T1a's customer... it can:
	// 12 -> 11 -> 21 -> 31 uses one peer link then downhill: valid.
	if !equalPath(paths[12], []ir.ASN{12, 11, 21, 31}) && !equalPath(paths[12], []ir.ASN{12, 22, 21, 31}) {
		t.Errorf("path from AS12 = %v", paths[12])
	}
	// Valley-freeness of every produced path.
	for _, asn := range topo.Order {
		if !valleyFree(topo.Rels, paths[asn]) {
			t.Errorf("path from AS%d is not valley-free: %v", asn, paths[asn])
		}
	}
}

func TestPathsToPrefersCustomerRoute(t *testing.T) {
	topo := diamondTopo()
	sim := NewSimulator(topo)
	// Routes to T2a(21): T1a(11) has 21 as customer -> customer route
	// of length 1, even though peer routes could exist.
	paths := sim.PathsTo(21)
	if !equalPath(paths[11], []ir.ASN{11, 21}) {
		t.Errorf("path from AS11 = %v", paths[11])
	}
	// 22 prefers its peer link to 21 (peer route, length 1) over
	// provider routes.
	if !equalPath(paths[22], []ir.ASN{22, 21}) {
		t.Errorf("path from AS22 = %v", paths[22])
	}
}

// valleyFree checks the Gao–Rexford export rule along a path written
// [receiver ... origin]: traversed from origin to receiver, once the
// route goes down (p2c) or across a second peer link, it may never go
// up again.
func valleyFree(rels *asrel.Database, path []ir.ASN) bool {
	if len(path) < 2 {
		return true
	}
	// Walk from origin (end) to receiver (start).
	wentDownOrAcross := false
	for i := len(path) - 1; i > 0; i-- {
		from, to := path[i], path[i-1] // route flows from -> to
		switch rels.Rel(from, to) {
		case asrel.Customer: // from exports to its provider: uphill
			if wentDownOrAcross {
				return false
			}
		case asrel.Peer, asrel.Provider:
			wentDownOrAcross = true
		default:
			return false // unknown link
		}
	}
	return true
}

func TestGeneratedTopologyAllReachable(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 1, ASes: 200})
	sim := NewSimulator(topo)
	// Pick a handful of destinations; every AS must have a valley-free
	// path.
	for _, d := range []ir.ASN{topo.Order[0], topo.Order[len(topo.Order)/2], topo.Order[len(topo.Order)-1]} {
		paths := sim.PathsTo(d)
		for _, asn := range topo.Order {
			p := paths[asn]
			if p == nil {
				t.Fatalf("AS%d cannot reach AS%d", asn, d)
			}
			if !valleyFree(topo.Rels, p) {
				t.Fatalf("non-valley-free path to AS%d: %v", d, p)
			}
			if p[0] != asn || p[len(p)-1] != d {
				t.Fatalf("malformed path: %v", p)
			}
		}
	}
}

func TestCollectRoutes(t *testing.T) {
	topo := diamondTopo()
	sim := NewSimulator(topo)
	collectors := []Collector{{Name: "rrc00", Peers: []ir.ASN{11, 32}}}
	routes := sim.CollectRoutes(collectors, Options{Seed: 3, PrependFrac: -1, ASSetFrac: -1})
	// 6 origins x 1 prefix each x 2 peers = 12 routes.
	if len(routes) != 12 {
		t.Fatalf("routes = %d, want 12", len(routes))
	}
	for _, r := range routes {
		if len(r.Path) == 0 {
			t.Fatal("empty path")
		}
		if r.Path[0] != 11 && r.Path[0] != 32 {
			t.Errorf("route does not start at a collector peer: %v", r.Path)
		}
	}
}

func TestCollectRoutesPrepending(t *testing.T) {
	topo := diamondTopo()
	sim := NewSimulator(topo)
	collectors := []Collector{{Name: "rrc00", Peers: []ir.ASN{11}}}
	routes := sim.CollectRoutes(collectors, Options{Seed: 9, PrependFrac: 1.0, ASSetFrac: -1})
	for _, r := range routes {
		origin := r.Path[len(r.Path)-1]
		if len(r.Path) >= 2 && r.Path[len(r.Path)-2] != origin && len(r.Path) > 1 {
			// With PrependFrac = 1 every multi-hop route must end with a
			// prepended origin (at least twice).
			if len(r.Path) > 1 && r.Path[len(r.Path)-2] != origin {
				t.Errorf("expected prepended origin in %v", r.Path)
			}
		}
	}
}

func TestDefaultCollectors(t *testing.T) {
	topo := topology.Generate(topology.Config{Seed: 2, ASes: 100})
	sim := NewSimulator(topo)
	cs := sim.DefaultCollectors(5)
	if len(cs) != 5 {
		t.Fatalf("collectors = %d", len(cs))
	}
	for _, c := range cs {
		if len(c.Peers) == 0 {
			t.Errorf("collector %s has no peers", c.Name)
		}
		if c.Name == "" {
			t.Error("collector without name")
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	routes := []Route{
		{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{3257, 1299, 6939}},
		{Prefix: prefix.MustParse("2001:db8::/32"), Path: []ir.ASN{174, 64500}},
		{Prefix: prefix.MustParse("198.51.100.0/24"), Path: []ir.ASN{174, 64501}, HasASSet: true},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, routes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("routes = %d", len(got))
	}
	if !equalPath(got[0].Path, routes[0].Path) {
		t.Errorf("path 0 = %v", got[0].Path)
	}
	if got[0].Prefix.Compare(routes[0].Prefix) != 0 {
		t.Errorf("prefix 0 = %v", got[0].Prefix)
	}
	if !got[2].HasASSet {
		t.Error("AS-set flag lost")
	}
}

func TestReadDumpErrors(t *testing.T) {
	for _, text := range []string{
		"no-pipe-here\n",
		"banana|1 2 3\n",
		"192.0.2.0/24|1 x 3\n",
		"192.0.2.0/24|\n",
	} {
		if _, err := ReadDump(bytes.NewReader([]byte(text))); err == nil {
			t.Errorf("ReadDump(%q) succeeded", text)
		}
	}
}

func TestReadDumpSkipsComments(t *testing.T) {
	got, err := ReadDump(bytes.NewReader([]byte("# header\n\n192.0.2.0/24|1 2\n")))
	if err != nil || len(got) != 1 {
		t.Fatalf("got=%v err=%v", got, err)
	}
}

func equalPath(a, b []ir.ASN) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCommunityParsing(t *testing.T) {
	c, err := ParseCommunity("65535:666")
	if err != nil || c != BlackholeCommunity {
		t.Errorf("ParseCommunity = %v, %v", c, err)
	}
	if c.High() != 65535 || c.Low() != 666 || c.String() != "65535:666" {
		t.Errorf("halves = %d:%d %q", c.High(), c.Low(), c.String())
	}
	if ne, err := ParseCommunity("no-export"); err != nil || ne != NewCommunity(65535, 65281) {
		t.Errorf("no-export = %v, %v", ne, err)
	}
	for _, bad := range []string{"", "1", "x:y", "70000:1", "1:70000"} {
		if _, err := ParseCommunity(bad); err == nil {
			t.Errorf("ParseCommunity(%q) accepted", bad)
		}
	}
}

func TestDumpRoundTripWithCommunities(t *testing.T) {
	routes := []Route{
		{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{1, 2},
			Communities: []Community{BlackholeCommunity, NewCommunity(64496, 7)}},
		{Prefix: prefix.MustParse("198.51.100.0/24"), Path: []ir.ASN{3, 4}},
	}
	var buf bytes.Buffer
	if err := WriteDump(&buf, routes); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got[0].Communities) != 2 || got[0].Communities[0] != BlackholeCommunity {
		t.Errorf("communities = %v", got[0].Communities)
	}
	if len(got[1].Communities) != 0 {
		t.Errorf("untagged route gained communities: %v", got[1].Communities)
	}
}

func TestCollectRoutesCommunityTagging(t *testing.T) {
	topo := diamondTopo()
	sim := NewSimulator(topo)
	collectors := []Collector{{Name: "rrc00", Peers: []ir.ASN{11}}}
	routes := sim.CollectRoutes(collectors, Options{
		Seed: 5, PrependFrac: -1, ASSetFrac: -1,
		CommunityFrac: 1.0, StripCommunityFrac: -1,
	})
	for _, r := range routes {
		if !slices.Contains(r.Communities, BlackholeCommunity) {
			t.Fatalf("route %v not tagged with CommunityFrac=1", r.Path)
		}
	}
	stripped := sim.CollectRoutes(collectors, Options{
		Seed: 5, PrependFrac: -1, ASSetFrac: -1,
		CommunityFrac: 1.0, StripCommunityFrac: 1.0,
	})
	for _, r := range stripped {
		if len(r.Communities) != 0 {
			t.Fatalf("route %v kept community despite stripping", r.Path)
		}
	}
}

// learned is the per-AS state while computing routes to one
// destination.
type learned struct {
	class   routeClass
	length  int
	nextHop ir.ASN
}

// better reports whether candidate (class c, length l, next hop via nh)
// beats the current state, using Gao–Rexford preference then shortest
// path then lowest next-hop ASN.
func (cur learned) better(c routeClass, l int, nh ir.ASN) bool {
	if c != cur.class {
		return c > cur.class
	}
	if l != cur.length {
		return l < cur.length
	}
	return nh < cur.nextHop
}

// refPathsTo is the map-based solver PathsTo replaced, kept as its
// reference. It computes, for every AS, its best AS-path to destination d
// (the path starts at the AS and ends with d). ASes with no route map
// to nil. The algorithm runs the classic three-phase propagation:
//
//  1. Customer routes climb provider links (BFS from d upward).
//  2. ASes with customer routes (or d itself) export to peers.
//  3. Routes descend provider-to-customer links.
func refPathsTo(s *Simulator, d ir.ASN) map[ir.ASN][]ir.ASN {
	rels := s.Topo.Rels
	state := make(map[ir.ASN]learned, len(s.order))
	state[d] = learned{class: classCustomer, length: 0, nextHop: d}

	// Phase 1: climb provider links, BFS by path length so shorter
	// customer routes win.
	frontier := []ir.ASN{d}
	length := 0
	for len(frontier) > 0 {
		length++
		var next []ir.ASN
		sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
		for _, u := range frontier {
			for _, p := range rels.Providers(u) {
				cur, ok := state[p]
				if !ok || cur.better(classCustomer, length, u) {
					if !ok || cur.class != classCustomer || length < cur.length ||
						(length == cur.length && u < cur.nextHop) {
						if !ok {
							next = append(next, p)
						}
						state[p] = learned{class: classCustomer, length: length, nextHop: u}
					}
				}
			}
		}
		frontier = next
	}

	// Phase 2: peer exports from ASes holding customer routes (or d).
	peerState := make(map[ir.ASN]learned)
	for u, st := range state {
		if st.class != classCustomer {
			continue
		}
		for _, p := range rels.Peers(u) {
			cand := learned{class: classPeer, length: st.length + 1, nextHop: u}
			if cur, ok := peerState[p]; !ok || cur.better(classPeer, cand.length, u) {
				if !ok || cand.length < cur.length || (cand.length == cur.length && u < cur.nextHop) {
					peerState[p] = cand
				}
			}
		}
	}
	for p, st := range peerState {
		if cur, ok := state[p]; !ok || cur.class < classPeer {
			state[p] = st
		}
	}

	// Phase 3: descend provider->customer links, BFS by length over
	// ASes that do not already hold a better route.
	var downFrontier []ir.ASN
	for u := range state {
		downFrontier = append(downFrontier, u)
	}
	sort.Slice(downFrontier, func(i, j int) bool { return downFrontier[i] < downFrontier[j] })
	for len(downFrontier) > 0 {
		var next []ir.ASN
		for _, u := range downFrontier {
			st := state[u]
			for _, c := range rels.Customers(u) {
				cand := learned{class: classProvider, length: st.length + 1, nextHop: u}
				cur, ok := state[c]
				if !ok {
					state[c] = cand
					next = append(next, c)
					continue
				}
				if cur.class == classProvider && (cand.length < cur.length ||
					(cand.length == cur.length && u < cur.nextHop)) {
					state[c] = cand
					next = append(next, c)
				}
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		downFrontier = next
	}

	// Materialize paths.
	out := make(map[ir.ASN][]ir.ASN, len(state))
	for u := range state {
		out[u] = refReconstruct(u, d, state)
	}
	return out
}

func refReconstruct(u, d ir.ASN, state map[ir.ASN]learned) []ir.ASN {
	path := []ir.ASN{u}
	cur := u
	for cur != d {
		st, ok := state[cur]
		if !ok || len(path) > len(state)+1 {
			return nil // should not happen; guard against loops
		}
		cur = st.nextHop
		path = append(path, cur)
	}
	return path
}

// checkPathsTo fails t unless PathsTo(d) and the reference give every
// AS the same path.
func checkPathsTo(t *testing.T, sim *Simulator, d ir.ASN) {
	t.Helper()
	got, want := sim.PathsTo(d), refPathsTo(sim, d)
	if reflect.DeepEqual(got, want) {
		return
	}
	ases := slices.Sorted(maps.Keys(want))
	for a := range got {
		if _, ok := want[a]; !ok {
			ases = append(ases, a)
		}
	}
	for _, a := range ases {
		g, gok := got[a]
		w, wok := want[a]
		if gok != wok || !slices.Equal(g, w) {
			t.Fatalf("path from AS%d to AS%d = %v (present %v), reference %v (present %v)", a, d, g, gok, w, wok)
		}
	}
	t.Fatalf("paths to AS%d differ from the reference", d)
}

// TestPathsToMatchesReference holds the dense solver to the map-based
// one it replaced, every AS's path to every destination, over the
// hand-made diamond and generated topologies (one destination in 25 at
// 2 000 ASes).
func TestPathsToMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name  string
		topo  *topology.Topology
		every int
	}{
		{"diamond", diamondTopo(), 1},
		{"50/1", topology.Generate(topology.Config{Seed: 1, ASes: 50}), 1},
		{"300/7", topology.Generate(topology.Config{Seed: 7, ASes: 300}), 1},
		{"800/9", topology.Generate(topology.Config{Seed: 9, ASes: 800}), 1},
		{"2000/42", topology.Generate(topology.Config{Seed: 42, ASes: 2000}), 25},
	} {
		t.Run(c.name, func(t *testing.T) {
			sim := NewSimulator(c.topo)
			for i := 0; i < len(c.topo.Order); i += c.every {
				checkPathsTo(t, sim, c.topo.Order[i])
			}
		})
	}
}

// fuzzTopo decodes data into a graph of at most 40 ASes: the first byte
// sizes the pool, one bit per AS says whether it is in Order (an AS left
// out can still have relationships), and every following byte triple is
// a link: provider-to-customer, peer or none. The links may form p2c
// cycles and self-links, and ASes may be left isolated. Every AS in Order
// announces one prefix.
func fuzzTopo(data []byte) *topology.Topology {
	t := &topology.Topology{ASes: map[ir.ASN]*topology.AS{}, Rels: asrel.New()}
	if len(data) == 0 {
		return t
	}
	n := 1 + int(data[0])%40
	data = data[1:]
	asn := func(i int) ir.ASN { return ir.ASN(10 + 3*i) }
	for i := 0; i < n; i++ {
		if b := i / 8; b < len(data) && data[b]&(1<<(i%8)) != 0 {
			continue
		}
		a := asn(i)
		pfx := prefix.FromNetip(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16))
		t.ASes[a] = &topology.AS{ASN: a, Prefixes: []prefix.Prefix{pfx}}
		t.Order = append(t.Order, a)
	}
	data = data[min(len(data), (n+7)/8):]
	for ; len(data) >= 3; data = data[3:] {
		a, b := asn(int(data[1])%n), asn(int(data[2])%n)
		switch data[0] % 3 {
		case 0:
			t.Rels.AddP2C(a, b)
		case 1:
			t.Rels.AddP2P(a, b)
		}
	}
	return t
}

// FuzzPathsTo holds PathsTo to the reference on every destination of a
// decoded graph, ASes outside Order and one outside the graph included,
// and holds CollectRoutes' paths to the reference's paths from its peers.
func FuzzPathsTo(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 1, 0, 1, 2, 1, 2, 0, 2, 3, 1, 3, 4})
	f.Add([]byte{3, 0, 0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 2, 0}) // p2c cycle
	f.Add([]byte{8, 0x84, 0, 1, 2, 0, 0, 3, 1, 3, 4, 1, 5, 5, 0, 6, 6})
	f.Add([]byte{40, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 3, 1, 2, 3, 0, 3, 4, 0, 4, 5, 0, 2, 5, 1, 5, 6, 0, 6, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		topo := fuzzTopo(data)
		sim := NewSimulator(topo)
		dests := append(slices.Concat(topo.Order, topo.Rels.ASes()), 7)
		for _, d := range dests {
			checkPathsTo(t, sim, d)
		}
		peers := append(slices.Clone(dests[:min(len(dests), 3)]), 7, dests[0])
		routes := sim.CollectRoutes([]Collector{{Name: "rrc00", Peers: peers[:2]}, {Name: "rrc01", Peers: peers[2:]}},
			Options{PrependFrac: -1, ASSetFrac: -1})
		var want []Route
		for _, origin := range topo.Order {
			ref := refPathsTo(sim, origin)
			for _, p := range peers {
				if path := ref[p]; path != nil {
					want = append(want, Route{Prefix: topo.ASes[origin].Prefixes[0], Path: path})
				}
			}
		}
		if !reflect.DeepEqual(routes, want) {
			t.Fatalf("CollectRoutes = %v, want %v", routes, want)
		}
	})
}

// TestCollectRoutesDigest pins the routes of two corpora, the ones
// core.BuildSynthetic(Options{Seed: s, ASes: n}).CollectRoutes(c, s)
// draws, each route hashed as prefix|path|as-set|communities in order.
func TestCollectRoutesDigest(t *testing.T) {
	for _, c := range []struct {
		seed                   int64
		ases, collectors, want int
		digest                 string
	}{
		{7, 300, 4, 35_175, "e49d5fe9014b47a6"},
		{9, 800, 12, 248_508, "37ca823fe2502d1f"},
	} {
		sim := NewSimulator(topology.Generate(topology.Config{Seed: c.seed, ASes: c.ases}))
		routes := sim.CollectRoutes(sim.DefaultCollectors(c.collectors), Options{Seed: c.seed})
		h := sha256.New()
		for _, r := range routes {
			fmt.Fprintf(h, "%s|%v|%v|%v\n", r.Prefix, r.Path, r.HasASSet, r.Communities)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:8]); len(routes) != c.want || got != c.digest {
			t.Errorf("seed %d, %d ASes, %d collectors: %d routes, digest %s; want %d, %s",
				c.seed, c.ases, c.collectors, len(routes), got, c.want, c.digest)
		}
	}
}
