package prefix

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// randPrefixes draws n prefixes, with repeats, from a space dense enough
// to force shared paths, ancestors and branch nodes in both families.
func randPrefixes(rng *rand.Rand, n int) []Prefix {
	out := make([]Prefix, n)
	for i := range out {
		if rng.Intn(3) == 0 {
			var b [16]byte
			b[0], b[1] = 0x20, 0x01
			rng.Read(b[2:5])
			p, _ := netip.AddrFrom16(b).Prefix(16 + rng.Intn(33))
			out[i] = Prefix{p}
			continue
		}
		var b [4]byte
		rng.Read(b[:])
		b[0] = byte(10 + rng.Intn(2))
		p, _ := netip.AddrFrom4(b).Prefix(8 + rng.Intn(17))
		out[i] = Prefix{p}
	}
	return out
}

type entry struct {
	p Prefix
	v int
}

func walked(visit func(func(Prefix, int) bool)) []entry {
	var out []entry
	visit(func(p Prefix, v int) bool {
		out = append(out, entry{p, v})
		return true
	})
	return out
}

// buildLastWins is BuildTrie with each prefix holding the position of
// its last occurrence in ps, as repeated Insert leaves it.
func buildLastWins(ps []Prefix) *Trie[int] {
	return BuildTrie(len(ps), func(i int) Prefix { return ps[i] }, func(v *int, i int) { *v = i })
}

// checkBuiltMatchesInsert fails unless BuildTrie over ps is the trie
// repeated Insert builds: same nodes, and the same answers from Len,
// Get, Walk, Covering and CoveredBy for ps and queries.
func checkBuiltMatchesInsert(t *testing.T, ps, queries []Prefix) {
	t.Helper()
	var want *Trie[int]
	for i, p := range ps {
		want = want.Insert(p, i)
	}
	got := buildLastWins(ps)
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("built trie's nodes differ from the inserted trie's over %v", ps)
	}
	if g, w := walked(got.Walk), walked(want.Walk); !reflect.DeepEqual(g, w) {
		t.Fatalf("Walk = %v, want %v", g, w)
	}
	for _, q := range append(queries, ps...) {
		gv, gok := got.Get(q)
		wv, wok := want.Get(q)
		if gv != wv || gok != wok {
			t.Fatalf("Get(%s) = %d,%v, want %d,%v", q, gv, gok, wv, wok)
		}
		g := walked(func(y func(Prefix, int) bool) { got.Covering(q, y) })
		w := walked(func(y func(Prefix, int) bool) { want.Covering(q, y) })
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("Covering(%s) = %v, want %v", q, g, w)
		}
		g = walked(func(y func(Prefix, int) bool) { got.CoveredBy(q, y) })
		w = walked(func(y func(Prefix, int) bool) { want.CoveredBy(q, y) })
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("CoveredBy(%s) = %v, want %v", q, g, w)
		}
	}
}

// TestTrieBuilderMatchesInsert asserts a trie built by BuildTrie is the
// trie repeated Insert builds, node for node.
func TestTrieBuilderMatchesInsert(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randPrefixes(rng, 1+rng.Intn(600))
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			checkBuiltMatchesInsert(t, ps, randPrefixes(rng, 200))
		})
	}
	if BuildTrie(0, nil, func(*int, int) {}) != nil {
		t.Fatal("BuildTrie of no prefixes is not the empty trie")
	}
}

// TestBuildTrieAddsInOrder asserts add sees every position once, the
// positions of one prefix one after another and in ascending order.
func TestBuildTrieAddsInOrder(t *testing.T) {
	ps := randPrefixes(rand.New(rand.NewSource(7)), 2000)
	seen := make([]bool, len(ps))
	var last *[]int
	tr := BuildTrie(len(ps), func(i int) Prefix { return ps[i] }, func(v *[]int, i int) {
		if seen[i] {
			t.Fatalf("position %d added twice", i)
		}
		seen[i] = true
		if len(*v) > 0 && (v != last || (*v)[len(*v)-1] >= i) {
			t.Fatalf("position %d of %s added out of turn after %v", i, ps[i], *v)
		}
		*v, last = append(*v, i), v
	})
	tr.Walk(func(p Prefix, at []int) bool {
		for _, i := range at {
			if ps[i] != p {
				t.Fatalf("position %d (%s) added to %s", i, ps[i], p)
			}
		}
		return true
	})
	for i, ok := range seen {
		if !ok {
			t.Fatalf("position %d never added", i)
		}
	}
}

// TestBuiltTrieIsPersistent asserts a handed-over trie is an ordinary
// persistent one: Insert and Delete on it and on its descendants leave
// every earlier root's Walk unchanged, while a reader walks the built
// root concurrently (run under -race).
func TestBuiltTrieIsPersistent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ps := randPrefixes(rng, 500)
	built := buildLastWins(ps)
	builtWalk := walked(built.Walk)
	roots := []*Trie[int]{built}
	snaps := [][]entry{builtWalk}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := walked(built.Walk); !reflect.DeepEqual(got, builtWalk) {
				t.Error("concurrent reader saw the built trie change")
				return
			}
		}
	}()

	cur := built
	for step, p := range append(randPrefixes(rng, 300), ps[:100]...) {
		if step%2 == 0 {
			cur = cur.Insert(p, -step)
		} else {
			cur = cur.Delete(p)
		}
		roots = append(roots, cur)
		snaps = append(snaps, walked(cur.Walk))
	}
	close(stop)
	wg.Wait()
	for i, root := range roots {
		if got := walked(root.Walk); !reflect.DeepEqual(got, snaps[i]) {
			t.Fatalf("root %d changed after later Insert/Delete calls", i)
		}
	}
}

// TestSortKeysMatchesCompare asserts SortKeys orders Keys as a stable
// sort on Prefix.Compare orders their prefixes, and that Key and
// Key.Prefix round-trip, over both families, IPv4-mapped IPv6
// prefixes, duplicates and one-family inputs.
func TestSortKeysMatchesCompare(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randPrefixes(rng, rng.Intn(800))
		if seed%4 == 0 {
			ps = append(ps, decodePrefixes(encodePrefixes("::ffff:10.0.0.0/104", "::/0", "0.0.0.0/0", "255.255.255.255/32", "ffff::/16"))...)
		}
		if seed%5 == 0 { // IPv4 only
			ps = slices.DeleteFunc(ps, Prefix.IsIPv6)
		}
		ks := make([]PosKey, len(ps))
		for i, p := range ps {
			if got := p.Key().Prefix(); got != p {
				t.Fatalf("Key(%s).Prefix() = %s", p, got)
			}
			ks[i] = p.Key().At(i)
		}
		SortKeys(ks)
		want := make([]int, len(ps))
		for i := range want {
			want[i] = i
		}
		slices.SortStableFunc(want, func(a, b int) int { return ps[a].Compare(ps[b]) })
		for i, k := range ks {
			if int(k.Pos) != want[i] {
				t.Fatalf("seed %d: position %d holds %s (#%d), want %s (#%d)", seed, i, ps[k.Pos], k.Pos, ps[want[i]], want[i])
			}
		}
	}
}
