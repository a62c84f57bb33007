package verify

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/topology"
)

// checkSweepOrder runs sweep over routes at the given partition count
// and holds every partition's evaluation order to compareForSharing: it
// never decreases, every route is evaluated exactly once, by the
// partition of its origin, and only after prepare has returned.
func checkSweepOrder(t testing.TB, routes []bgpsim.Route, shards int) {
	t.Helper()
	v := &Verifier{cfg: Config{Shards: shards}}
	var mu sync.Mutex
	prepared := false
	orders := make(map[*reportArena][]int32)
	prepare := func() {
		mu.Lock()
		defer mu.Unlock()
		prepared = true
	}
	v.sweep(routes, 0, prepare, func(a *reportArena, i int32) {
		mu.Lock()
		defer mu.Unlock()
		if !prepared {
			t.Errorf("route %d evaluated before prepare returned", i)
		}
		orders[a] = append(orders[a], i)
	})
	seen := make([]int, len(routes))
	for _, order := range orders {
		part := routeShard(&routes[order[0]], shards)
		for k, i := range order {
			seen[i]++
			if s := routeShard(&routes[i], shards); s != part {
				t.Fatalf("route %d of partition %d evaluated in partition %d", i, s, part)
			}
			if k > 0 {
				if c := compareForSharing(&routes[order[k-1]], &routes[i]); c > 0 {
					t.Fatalf("%d partitions: route %d (%s %v %v) evaluated after route %d (%s %v %v), which sorts after it",
						shards, i, routes[i].Prefix, routes[i].Communities, routes[i].Path,
						order[k-1], routes[order[k-1]].Prefix, routes[order[k-1]].Communities, routes[order[k-1]].Path)
				}
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("%d partitions: route %d evaluated %d times", shards, i, n)
		}
	}
}

// TestSweepOrderIsSharingSorted holds sweep's path-first order — a
// radix sort on family, community hash and the first origin-side hops,
// then a sort within each run of equal Keys — to the comparator that
// defines sharing order, over randomIndexCorpus draws at several
// partition counts. Run at -cpu 1,2,4 to move the default partition
// count of the drivers built on sweep.
func TestSweepOrderIsSharingSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 5, 64, 1000, 20_000} {
		for _, shards := range []int{1, 2, 3, 8} {
			checkSweepOrder(t, randomIndexCorpus(rng, n), shards)
		}
	}
}

// FuzzSharingOrder decodes routes from the input, three bytes and a
// path per route, and holds sweep's path-first order to
// compareForSharing as TestSweepOrderIsSharingSorted does: paths that
// run out, AS 0 against the zero past a path's end, paths of more hops
// than the Keys hold, and communities whose hashes order them.
func FuzzSharingOrder(f *testing.F) {
	f.Add(byte(2), []byte{0, 0, 3, 1, 2, 3, 0, 0, 4, 9, 1, 2, 3})
	f.Add(byte(1), []byte{1, 2, 2, 5, 5, 2, 1, 6, 7, 1, 2, 3, 4, 5, 6, 7, 3, 0, 1, 250})
	f.Add(byte(4), []byte{4, 5, 8, 1, 1, 2, 3, 4, 5, 6, 7, 4, 4, 8, 9, 2, 3, 4, 5, 6, 7, 8, 3, 1, 0, 0})
	var families []byte // one route on each of the eight prefixes, last first
	for p := 7; p >= 0; p-- {
		families = append(families, byte(p), 0, 2, 1, 2)
	}
	f.Add(byte(0), families)
	// One long path and its origin-side parts over three families, with
	// and without communities, beside paths through AS 0.
	long := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 1, 2}
	var paths []byte
	for _, p := range []byte{0, 4, 6, 0} {
		for n := 2; n <= len(long); n += 3 {
			paths = append(paths, p, p&2, byte(n))
			paths = append(paths, long[len(long)-n:]...)
		}
	}
	paths = append(paths, 1, 0, 3, 1, 0, 3, 1, 0, 2, 0, 3, 1, 0, 4, 5, 0, 1, 3)
	f.Add(byte(3), paths)
	f.Fuzz(func(t *testing.T, shards byte, data []byte) {
		checkSweepOrder(t, decodeRoutes(data), 1+int(shards%8))
	})
}

// decodeRoutes reads routes from data: a prefix byte (one of eight
// prefixes of three families), a flags byte (an AS-set bit and up to
// three communities), a path length byte, then one byte per hop, read
// as a small ASN or, from 250 on, a 4-byte one.
func decodeRoutes(data []byte) []bgpsim.Route {
	prefixes := []string{
		"10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/16", "0.0.0.0/0",
		"2001:db8::/32", "2001:db8::/48", "::ffff:10.0.0.0/120", "::ffff:10.0.0.0/104",
	}
	var routes []bgpsim.Route
	for len(data) >= 3 {
		r := bgpsim.Route{Prefix: prefix.MustParse(prefixes[data[0]%8]), HasASSet: data[1]&1 != 0}
		for c := data[1] >> 1 & 3; c > 0; c-- {
			r.Communities = append(r.Communities, bgpsim.Community(c+data[1]>>3&1))
		}
		hops := int(data[2] % 12)
		data = data[3:]
		for ; hops > 0 && len(data) > 0; hops-- {
			a := ir.ASN(data[0] % 10)
			if data[0] >= 250 {
				a = ir.ASN(binary.BigEndian.Uint32([]byte{250, 0, 0, data[0]}))
			}
			r.Path = append(r.Path, a)
			data = data[1:]
		}
		routes = append(routes, r)
	}
	return routes
}

// corpus2kRoutes is the route half of bench/'s corpus-2k, from the
// topology and the simulator alone: 2 000 ASes at seed 42, the routes
// 8 collectors see at seed 42 under opts' remaining fields.
func corpus2kRoutes(b *testing.B, opts bgpsim.Options) []bgpsim.Route {
	b.Helper()
	sim := bgpsim.NewSimulator(topology.Generate(topology.Config{Seed: 42, ASes: 2000}))
	opts.Seed = 42
	return sim.CollectRoutes(sim.DefaultCollectors(8), opts)
}

// BenchmarkSharingOrder orders every route of corpus-2k on one
// goroutine, by a comparison sort under compareForSharing and by
// sharingOrder's path-first radix order. The communities corpus tags
// routes as the communities experiment does, 35 % of them, so their
// community hashes spread each path's routes over many Keys.
func BenchmarkSharingOrder(b *testing.B) {
	for _, c := range []struct {
		name string
		opts bgpsim.Options
	}{
		{"corpus-2k", bgpsim.Options{}},
		{"communities", bgpsim.Options{CommunityFrac: 0.5, StripCommunityFrac: 0.3}},
	} {
		routes := corpus2kRoutes(b, c.opts)
		idxs := make([]int32, len(routes))
		reset := func() {
			for i := range idxs {
				idxs[i] = int32(i)
			}
		}
		b.Run(c.name+"/compare", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reset()
				slices.SortFunc(idxs, func(x, y int32) int { return compareForSharing(&routes[x], &routes[y]) })
			}
		})
		b.Run(c.name+"/radix", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reset()
				sharingOrder(routes, idxs)
			}
		})
	}
}
