package parser

import (
	"fmt"
	"math/rand"
	"net/netip"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// firstWinsRoutes is the reference route merge: a map from (prefix,
// origin, source) keeps the first route of each tuple in feed order.
func firstWinsRoutes(feed []ChunkResult) []*ir.RouteObject {
	type tuple struct {
		p      prefix.Prefix
		origin ir.ASN
		source string
	}
	seen := make(map[tuple]bool)
	var out []*ir.RouteObject
	for _, res := range feed {
		for _, r := range res.Flat.Routes {
			if k := (tuple{r.Prefix, r.Origin, res.Source}); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	return out
}

// TestMergeRoutesMatchesFirstWinsMap asserts the merge's sort-based
// removal of duplicate routes keeps what the first-wins map keeps, in
// the same order, over shuffled feeds full of duplicates within and
// across sources, both families and nested prefixes.
func TestMergeRoutesMatchesFirstWinsMap(t *testing.T) {
	sources := []string{"RIPE", "RADB", "ARIN", "APNIC"}
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]prefix.Prefix, 1+rng.Intn(40))
		for i := range pool {
			if rng.Intn(3) == 0 {
				a := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(rng.Intn(4)), byte(rng.Intn(256))})
				pool[i] = prefix.FromNetip(netip.PrefixFrom(a, 32+rng.Intn(17)))
				continue
			}
			a := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(4)), byte(rng.Intn(256)), 0})
			pool[i] = prefix.FromNetip(netip.PrefixFrom(a, 8+rng.Intn(17)))
		}
		var routes []*ir.RouteObject
		for range 1 + rng.Intn(400) {
			routes = append(routes, &ir.RouteObject{
				Prefix: pool[rng.Intn(len(pool))],
				Origin: ir.ASN(64500 + rng.Intn(4)),
			})
		}
		rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
		var feed []ChunkResult
		for dump := 0; len(routes) > 0; dump++ {
			src := sources[rng.Intn(len(sources))]
			for range 1 + rng.Intn(3) {
				n := min(len(routes), rng.Intn(60))
				for _, r := range routes[:n] {
					r.Source = src
				}
				feed = append(feed, ChunkResult{Seq: len(feed), Source: src, DumpIndex: dump, IR: ir.New(), Flat: &FlatObjects{Routes: routes[:n]}})
				routes = routes[n:]
			}
		}
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			mg := newMerger()
			for _, res := range feed {
				mg.add(res)
			}
			got, want := mg.finish().Routes, firstWinsRoutes(feed)
			if len(got) != len(want) {
				t.Fatalf("merge kept %d routes, the first-wins map %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("route %d: merge kept %s %v %s, the first-wins map %s %v %s", i,
						got[i].Prefix, got[i].Origin, got[i].Source, want[i].Prefix, want[i].Origin, want[i].Source)
				}
			}
		})
	}
}
