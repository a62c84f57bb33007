package verify

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// indexRoutesReference is the one-goroutine index build indexRoutes
// replaced: one walk notes every (key, route) hit, keys numbered by
// first appearance, and group counts and fills.
func indexRoutesReference(routes []bgpsim.Route) (map[ir.ASN][]int32, map[prefix.Prefix][]int32) {
	asIDs := make(map[ir.ASN]int32)
	pfxIDs := make(map[prefix.Prefix]int32)
	var asHits, pfxHits []hit
	var path []ir.ASN
	for i := range routes {
		r := &routes[i]
		if r.HasASSet {
			continue
		}
		path = dedupePrependsInto(path[:0], r.Path)
		if len(path) <= 1 {
			continue
		}
		for j, asn := range path {
			if slices.Contains(path[:j], asn) {
				continue
			}
			asHits = append(asHits, hit{idOf(asIDs, asn), int32(i)})
		}
		pfxHits = append(pfxHits, hit{idOf(pfxIDs, r.Prefix), int32(i)})
	}
	return group(asIDs, asHits), group(pfxIDs, pfxHits)
}

// hit is one route under one key, by the key's number.
type hit struct{ key, route int32 }

func idOf[K comparable](ids map[K]int32, k K) int32 {
	id, ok := ids[k]
	if !ok {
		id = int32(len(ids))
		ids[k] = id
	}
	return id
}

// group returns each key's routes in hit order.
func group[K comparable](ids map[K]int32, hits []hit) map[K][]int32 {
	lists := make([][]int32, len(ids))
	for _, h := range hits {
		lists[h.key] = append(lists[h.key], h.route)
	}
	out := make(map[K][]int32, len(ids))
	for k, id := range ids {
		out[k] = lists[id]
	}
	return out
}

// randomIndexCorpus draws n routes over a few prefixes and ASes, so keys
// repeat across every partition: IPv4, IPv6 and IPv4-mapped IPv6
// prefixes, one prefix drawn under any origin (so its routes fall in
// several partitions), a few 4-byte ASNs among small ones, some of
// them equal to a small one in their low 16 bits, communities (0
// among them) on some routes, prepended paths, paths that loop back to
// an AS further up, paths that share a tail longer than a sharing
// key's hops, AS-set routes and single-AS routes, prepended or not,
// and runs of routes over one path.
func randomIndexCorpus(rng *rand.Rand, n int) []bgpsim.Route {
	asn := func() ir.ASN {
		switch rng.Intn(8) {
		case 0:
			return ir.ASN(4_200_000_000 + rng.Intn(4))
		case 1: // low 16 bits among the small ASNs'
			return ir.ASN(65536*(1+rng.Intn(3)) + rng.Intn(40))
		}
		return ir.ASN(1 + rng.Intn(40))
	}
	tail := []ir.ASN{7, 6, 5, 4, 3, 2, 1} // longer than suffixHops
	routes := make([]bgpsim.Route, n)
	for i := range routes {
		r := &routes[i]
		a := [4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), 0}
		r.Prefix = prefix.FromNetip(netip.PrefixFrom(netip.AddrFrom4(a), 24))
		switch rng.Intn(10) {
		case 0, 1:
			r.Prefix = prefix.MustParse(fmt.Sprintf("2001:db8:%x::/48", rng.Intn(16)))
		case 2:
			r.Prefix = prefix.FromNetip(netip.PrefixFrom(netip.AddrFrom16(netip.AddrFrom4(a).As16()), 120))
		case 3:
			r.Prefix = prefix.MustParse("192.0.2.0/24")
		}
		if rng.Intn(6) == 0 {
			for c := 1 + rng.Intn(2); c > 0; c-- {
				r.Communities = append(r.Communities, bgpsim.Community(rng.Intn(4)))
			}
		}
		switch rng.Intn(10) {
		case 9: // the last route's path again, as a collector's table lists an origin's prefixes
			if i > 0 {
				r.Path = slices.Clone(routes[i-1].Path)
				break
			}
			fallthrough
		case 0: // one AS, maybe prepended
			r.Path = slices.Repeat([]ir.ASN{asn()}, 1+rng.Intn(3))
		case 1:
			r.HasASSet = true
			fallthrough
		default:
			for hops := 2 + rng.Intn(6); hops > 0; hops-- {
				a := asn()
				if len(r.Path) > 1 && rng.Intn(6) == 0 {
					a = r.Path[rng.Intn(len(r.Path)-1)] // a loop back up the path
				}
				for rep := 1 + rng.Intn(4)/3; rep > 0; rep-- {
					r.Path = append(r.Path, a)
				}
			}
			if rng.Intn(4) == 0 {
				r.Path = append(r.Path, tail[rng.Intn(2):]...)
			}
		}
	}
	return routes
}

// TestIndexRoutesMatchesReference holds the sort-based index build to
// the hashed serial one it replaced: the same lists, in route order,
// each of exact size, and a trie holding every prefix's list.
func TestIndexRoutesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 5, 64, 1000, 20_000} {
		for draw := 0; draw < 3; draw++ {
			inc := &Incremental{routes: randomIndexCorpus(rng, n)}
			inc.indexRoutes()
			wantAS, wantPfx := indexRoutesReference(inc.routes)
			if !reflect.DeepEqual(inc.asRoutes, wantAS) {
				t.Fatalf("%d routes, draw %d: asRoutes = %v, want %v", n, draw, inc.asRoutes, wantAS)
			}
			for asn, idxs := range inc.asRoutes {
				if cap(idxs) != len(idxs) {
					t.Fatalf("AS%d: list has cap %d past len %d", asn, cap(idxs), len(idxs))
				}
			}
			inTrie := make(map[prefix.Prefix][]int32)
			inc.pfxTrie.Walk(func(p prefix.Prefix, idxs []int32) bool {
				if cap(idxs) != len(idxs) {
					t.Fatalf("%s: list has cap %d past len %d", p, cap(idxs), len(idxs))
				}
				inTrie[p] = idxs
				return true
			})
			if !reflect.DeepEqual(inTrie, wantPfx) {
				t.Fatalf("%d routes, draw %d: trie holds %v, want %v", n, draw, inTrie, wantPfx)
			}
		}
	}
}

// BenchmarkIndexRoutes builds the dirtying index over corpus-2k's
// routes. Run at -cpu 1,2 to see how far it parallelises.
func BenchmarkIndexRoutes(b *testing.B) {
	inc := &Incremental{routes: corpus2kRoutes(b, bgpsim.Options{})}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inc.indexRoutes()
	}
}
