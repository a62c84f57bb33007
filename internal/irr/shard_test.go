package irr

import (
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
// prefixes, nested prefixes (so coverage walks cross part boundaries),
// and duplicate (prefix, origin) pairs across sources.
func shardFixtureIR(t *testing.T, seed int64) *ir.IR {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < 400; i++ {
		// Addresses drawn from a small pool so many prefixes collide
		// exactly or nest; origins from a small dense ASN run so every
		// shard count splits them differently.
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

// assertShardEquivalent checks every route-index query surface of a
// sharded database against the unsharded reference, demanding exact
// equality (ordering included) — the sharded core's contract is
// byte-identical output at any shard count.
func assertShardEquivalent(t *testing.T, ref, db *Database, label string) {
	t.Helper()
	if total := func() int {
		n := 0
		for _, c := range db.ShardRouteCounts() {
			n += c
		}
		return n
	}(); total != len(db.IR.Routes) {
		t.Errorf("%s: shard route counts sum to %d, IR has %d routes", label, total, len(db.IR.Routes))
	}
	// Per-origin tables: exact single-part reads.
	for asn := ir.ASN(64490); asn < 64540; asn++ {
		rt, rok := ref.RouteTable(asn)
		gt, gok := db.RouteTable(asn)
		if rok != gok {
			t.Fatalf("%s: RouteTable(AS%d) ok %v != %v", label, asn, gok, rok)
		}
		if rok && !slices.Equal(rt.Entries(), gt.Entries()) {
			t.Errorf("%s: RouteTable(AS%d) entries differ", label, asn)
		}
	}
	// Prefix-keyed queries: exact merged order. Probe every prefix the
	// reference knows plus synthetic misses.
	probes := make([]prefix.Prefix, 0, 64)
	for _, part := range ref.parts {
		part.routeTrie.Walk(func(p prefix.Prefix, _ prefixOrigins) bool {
			probes = append(probes, p)
			return true
		})
	}
	probes = append(probes, prefix.MustParse("192.0.2.0/24"), prefix.MustParse("10.0.0.0/7"))
	for _, p := range probes {
		if got, want := db.OriginsOf(p), ref.OriginsOf(p); !slices.Equal(got, want) {
			t.Errorf("%s: OriginsOf(%v) = %v, want %v", label, p, got, want)
		}
		if got, want := db.RoutesCovering(p), ref.RoutesCovering(p); !equalPrefixOrigins(got, want) {
			t.Errorf("%s: RoutesCovering(%v) = %v, want %v", label, p, got, want)
		}
		if got, want := db.RoutesCoveredBy(p), ref.RoutesCoveredBy(p); !equalPrefixOrigins(got, want) {
			t.Errorf("%s: RoutesCoveredBy(%v) = %v, want %v", label, p, got, want)
		}
	}
}

func equalPrefixOrigins(a, b []PrefixOrigins) bool {
	return slices.EqualFunc(a, b, func(x, y PrefixOrigins) bool {
		return x.Prefix == y.Prefix && slices.Equal(x.Origins, y.Origins)
	})
}

func TestNewShardedEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		x := shardFixtureIR(t, seed)
		ref := New(x)
		for _, n := range []int{2, 3, 4, 7, 8} {
			db := NewSharded(x, n)
			if db.Shards() != n {
				t.Fatalf("Shards() = %d, want %d", db.Shards(), n)
			}
			assertShardEquivalent(t, ref, db, fmt.Sprintf("seed=%d shards=%d", seed, n))
		}
	}
}

// TestShardedMutationEquivalence drives the same randomized AddRoute /
// RemoveRoute sequence through an unsharded and a sharded clone and
// demands the query surfaces stay identical after every step — this is
// what NRTM journal application does on a sharded mirror.
func TestShardedMutationEquivalence(t *testing.T) {
	x := shardFixtureIR(t, 99)
	ref := New(x).Clone()
	db := NewSharded(x, 4).Clone()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 120; step++ {
		if rng.Intn(2) == 0 || len(ref.IR.Routes) == 0 {
			r := &ir.RouteObject{
				Prefix: prefix.MustParse(fmt.Sprintf("10.%d.0.0/%d", rng.Intn(8), []int{16, 24}[rng.Intn(2)])),
				Origin: ir.ASN(64496 + rng.Intn(40)),
				Source: "T3",
			}
			ref.IR.Routes = append(ref.IR.Routes, r)
			db.IR.Routes = append(db.IR.Routes, r)
			ref.AddRoute(r)
			db.AddRoute(r)
		} else {
			i := rng.Intn(len(ref.IR.Routes))
			r := ref.IR.Routes[i]
			ref.IR.Routes = slices.Delete(slices.Clone(ref.IR.Routes), i, i+1)
			db.IR.Routes = slices.Delete(slices.Clone(db.IR.Routes), i, i+1)
			ref.RemoveRoute(r)
			db.RemoveRoute(r)
		}
	}
	assertShardEquivalent(t, ref, db, "after mutations")
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
