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
// repeat across every range: prepended paths, paths that loop back to an
// AS further up, AS-set routes and single-AS routes, prepended or not.
func randomIndexCorpus(rng *rand.Rand, n int) []bgpsim.Route {
	routes := make([]bgpsim.Route, n)
	for i := range routes {
		r := &routes[i]
		a := [4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(8)), 0}
		r.Prefix = prefix.FromNetip(netip.PrefixFrom(netip.AddrFrom4(a), 24))
		if rng.Intn(5) == 0 {
			r.Prefix = prefix.MustParse(fmt.Sprintf("2001:db8:%x::/48", rng.Intn(16)))
		}
		switch rng.Intn(10) {
		case 0: // one AS, maybe prepended
			r.Path = slices.Repeat([]ir.ASN{ir.ASN(1 + rng.Intn(40))}, 1+rng.Intn(3))
		case 1:
			r.HasASSet = true
			fallthrough
		default:
			for hops := 2 + rng.Intn(6); hops > 0; hops-- {
				asn := ir.ASN(1 + rng.Intn(40))
				if len(r.Path) > 1 && rng.Intn(6) == 0 {
					asn = r.Path[rng.Intn(len(r.Path)-1)] // a loop back up the path
				}
				for rep := 1 + rng.Intn(4)/3; rep > 0; rep-- {
					r.Path = append(r.Path, asn)
				}
			}
		}
	}
	return routes
}

// TestIndexRoutesMatchesReference holds the partitioned index build to
// the serial one it replaced: the same lists, in route order, each of
// exact size, and a trie holding every prefix's list. Run at -cpu 1,2,4
// to move the range count; the small corpora give more ranges than
// routes.
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
			if !reflect.DeepEqual(inc.pfxRoutes, wantPfx) {
				t.Fatalf("%d routes, draw %d: pfxRoutes = %v, want %v", n, draw, inc.pfxRoutes, wantPfx)
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
