package irr

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
)

// shardFixtureIR builds a randomized route universe with multi-origin
// prefixes, nested prefixes (so coverage walks cross origin ranges),
// and duplicate (prefix, origin) pairs across sources.
func shardFixtureIR(t *testing.T, seed int64) *ir.IR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		// Addresses drawn from a small pool so many prefixes collide
		// exactly or nest; origins from a small dense ASN run so every
		// origin range of the build holds several.
		a := 10 + rng.Intn(4)
		b := rng.Intn(8)
		bits := []int{8, 16, 20, 24}[rng.Intn(4)]
		asn := 64496 + rng.Intn(40)
		fmt.Fprintf(&sb, "route: %d.%d.0.0/%d\norigin: AS%d\n\n", a, b, bits, asn)
	}
	for asn := 64496; asn < 64536; asn++ {
		fmt.Fprintf(&sb, "aut-num: AS%d\nimport: from AS64400 accept ANY\n\n", asn)
	}
	// A second source re-registers a slice of the routes, so pair
	// multiplicities exceed 1.
	return parser.ParseTexts(parser.DumpText{Source: "T1", Text: sb.String()},
		parser.DumpText{Source: "T2", Text: sb.String()[:sb.Len()/3]})
}

type routePair struct {
	p prefix.Prefix
	o ir.ASN
}

// scanRef answers the route-index queries by linear scans of a route
// list. born orders each live (prefix, origin) pair by when it was
// first seen: its first route's position for a fresh build, the tick of
// the AddRoute that brought it back after a removal took its last route.
type scanRef struct {
	routes []*ir.RouteObject
	born   map[routePair]int
	tick   int
}

func newScanRef(routes []*ir.RouteObject) *scanRef {
	s := &scanRef{born: make(map[routePair]int)}
	for _, r := range routes {
		s.add(r)
	}
	return s
}

// add records r, which must not be in routes yet.
func (s *scanRef) add(r *ir.RouteObject) {
	if s.count(r.Prefix, r.Origin) == 0 {
		s.born[routePair{r.Prefix, r.Origin}] = s.tick
		s.tick++
	}
	s.routes = append(s.routes, r)
}

// remove drops routes[i].
func (s *scanRef) remove(i int) {
	r := s.routes[i]
	s.routes = slices.Delete(slices.Clone(s.routes), i, i+1)
	if s.count(r.Prefix, r.Origin) == 0 {
		delete(s.born, routePair{r.Prefix, r.Origin})
	}
}

func (s *scanRef) count(p prefix.Prefix, o ir.ASN) int {
	n := 0
	for _, r := range s.routes {
		if r.Prefix == p && r.Origin == o {
			n++
		}
	}
	return n
}

// table is the distinct prefixes of o's routes in Prefix.Compare order.
func (s *scanRef) table(o ir.ASN) []prefix.Range {
	var out []prefix.Range
	for _, r := range s.routes {
		if r.Origin == o {
			out = append(out, prefix.Range{Prefix: r.Prefix})
		}
	}
	slices.SortFunc(out, func(a, b prefix.Range) int { return a.Prefix.Compare(b.Prefix) })
	return slices.Compact(out)
}

// origins is p's origins in first-seen order with their multiplicities.
func (s *scanRef) origins(p prefix.Prefix) ([]ir.ASN, []int) {
	var origins []ir.ASN
	for _, r := range s.routes {
		if r.Prefix == p && !slices.Contains(origins, r.Origin) {
			origins = append(origins, r.Origin)
		}
	}
	slices.SortFunc(origins, func(a, b ir.ASN) int {
		return cmp.Compare(s.born[routePair{p, a}], s.born[routePair{p, b}])
	})
	counts := make([]int, len(origins))
	for i, o := range origins {
		counts[i] = s.count(p, o)
	}
	return origins, counts
}

// prefixes is the distinct registered prefixes that keep says to, in
// the order less gives.
func (s *scanRef) prefixes(keep func(prefix.Prefix) bool, less func(a, b prefix.Prefix) int) []PrefixOrigins {
	var ps []prefix.Prefix
	for _, r := range s.routes {
		if keep(r.Prefix) && !slices.Contains(ps, r.Prefix) {
			ps = append(ps, r.Prefix)
		}
	}
	slices.SortFunc(ps, less)
	var out []PrefixOrigins
	for _, q := range ps {
		origins, _ := s.origins(q)
		out = append(out, PrefixOrigins{Prefix: q, Origins: origins})
	}
	return out
}

// assertMatchesScan checks every route-index query surface of db
// against linear scans of ref's routes, demanding exact equality,
// ordering included.
func assertMatchesScan(t *testing.T, ref *scanRef, db *Database, label string) {
	t.Helper()
	for asn := ir.ASN(64490); asn < 64540; asn++ {
		want := ref.table(asn)
		got, ok := db.RouteTable(asn)
		if ok != (len(want) > 0) {
			t.Fatalf("%s: RouteTable(AS%d) ok %v with %d prefixes registered", label, asn, ok, len(want))
		}
		if ok && !slices.Equal(got.Entries(), want) {
			t.Errorf("%s: RouteTable(AS%d) = %v, want %v", label, asn, got.Entries(), want)
		}
	}
	// Probe every registered prefix, a miss, a cover of most of the
	// pool and unregistered more-specifics inside it.
	probes := []prefix.Prefix{prefix.MustParse("192.0.2.0/24"), prefix.MustParse("10.0.0.0/7"),
		prefix.MustParse("10.1.0.0/17"), prefix.MustParse("11.3.0.0/28")}
	for _, r := range ref.routes {
		probes = append(probes, r.Prefix)
	}
	for _, p := range probes {
		origins, counts := ref.origins(p)
		if got := db.OriginsOf(p); !slices.Equal(got, origins) {
			t.Errorf("%s: OriginsOf(%v) = %v, want %v", label, p, got, origins)
		}
		if po, _ := db.routeTrie.Get(p); !slices.Equal(po.counts, counts) {
			t.Errorf("%s: multiplicities of %v = %v, want %v", label, p, po.counts, counts)
		}
		covering := ref.prefixes(func(q prefix.Prefix) bool { return q.Covers(p) },
			func(a, b prefix.Prefix) int { return cmp.Compare(a.Bits(), b.Bits()) })
		if got := db.RoutesCovering(p); !equalPrefixOrigins(got, covering) {
			t.Errorf("%s: RoutesCovering(%v) = %v, want %v", label, p, got, covering)
		}
		coveredBy := ref.prefixes(p.Covers, prefix.Prefix.Compare)
		if got := db.RoutesCoveredBy(p); !equalPrefixOrigins(got, coveredBy) {
			t.Errorf("%s: RoutesCoveredBy(%v) = %v, want %v", label, p, got, coveredBy)
		}
	}
}

func equalPrefixOrigins(a, b []PrefixOrigins) bool {
	return slices.EqualFunc(a, b, func(x, y PrefixOrigins) bool {
		return x.Prefix == y.Prefix && slices.Equal(x.Origins, y.Origins)
	})
}

// TestNewShardedEquivalence holds a fresh build's route index to the
// linear scans. The build is concurrent, so scripts/verify.sh also runs
// it at -cpu 1,2,4 under -race.
func TestNewShardedEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		x := shardFixtureIR(t, seed)
		assertMatchesScan(t, newScanRef(x.Routes), New(x), fmt.Sprintf("seed=%d", seed))
	}
}

// TestShardedMutationEquivalence drives a randomized AddRoute /
// RemoveRoute sequence through a clone and demands the query surfaces
// match the linear scans after it — this is what NRTM journal
// application does on a mirror.
func TestShardedMutationEquivalence(t *testing.T) {
	x := shardFixtureIR(t, 99)
	ref := newScanRef(x.Routes)
	db := New(x).Clone()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 || len(ref.routes) == 0 {
			r := &ir.RouteObject{
				Prefix: prefix.MustParse(fmt.Sprintf("10.%d.0.0/%d", rng.Intn(8), []int{16, 24}[rng.Intn(2)])),
				Origin: ir.ASN(64496 + rng.Intn(40)),
				Source: "T3",
			}
			ref.add(r)
			db.IR.Routes = append(db.IR.Routes, r)
			db.AddRoute(r)
		} else {
			i := rng.Intn(len(ref.routes))
			r := ref.routes[i]
			ref.remove(i)
			db.IR.Routes = slices.Delete(slices.Clone(db.IR.Routes), i, i+1)
			db.RemoveRoute(r)
		}
	}
	assertMatchesScan(t, ref, db, "after mutations")
}

func TestShardRouteCountsCloneIsolation(t *testing.T) {
	x := shardFixtureIR(t, 3)
	db := NewSharded(x, 4)
	before := db.ShardRouteCounts()
	c := db.Clone()
	r := &ir.RouteObject{Prefix: prefix.MustParse("10.9.0.0/24"), Origin: 64496, Source: "T9"}
	c.IR.Routes = append(c.IR.Routes, r)
	c.AddRoute(r)
	if !slices.Equal(db.ShardRouteCounts(), before) {
		t.Fatal("AddRoute on a clone mutated the parent's shard counts")
	}
	sum := 0
	for _, n := range c.ShardRouteCounts() {
		sum += n
	}
	if sum != len(c.IR.Routes) {
		t.Fatalf("clone shard counts sum %d, want %d", sum, len(c.IR.Routes))
	}
}
