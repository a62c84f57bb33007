package bgpsim

import (
	"bytes"
	"slices"
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
