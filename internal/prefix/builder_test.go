package prefix

import (
	"math/rand"
	"net/netip"
	"reflect"
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

// TestTrieBuilderMatchesInsert asserts a trie built in place is the
// trie repeated Insert builds: same nodes, and the same answers from
// Len, Get, Walk, Covering and CoveredBy.
func TestTrieBuilderMatchesInsert(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := randPrefixes(rng, 1+rng.Intn(600))
		var want *Trie[int]
		var b TrieBuilder[int]
		for i, p := range ps {
			want = want.Insert(p, i)
			*b.At(p) = i
		}
		got := b.Trie()
		if b.Trie() != nil {
			t.Fatal("builder still holds the trie it handed over")
		}
		if got.Len() != want.Len() {
			t.Fatalf("seed %d: Len = %d, want %d", seed, got.Len(), want.Len())
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: built trie's nodes differ from the inserted trie's", seed)
		}
		if g, w := walked(got.Walk), walked(want.Walk); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: Walk = %v, want %v", seed, g, w)
		}
		for _, q := range append(randPrefixes(rng, 200), ps...) {
			gv, gok := got.Get(q)
			wv, wok := want.Get(q)
			if gv != wv || gok != wok {
				t.Fatalf("seed %d: Get(%s) = %d,%v, want %d,%v", seed, q, gv, gok, wv, wok)
			}
			g := walked(func(y func(Prefix, int) bool) { got.Covering(q, y) })
			w := walked(func(y func(Prefix, int) bool) { want.Covering(q, y) })
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: Covering(%s) = %v, want %v", seed, q, g, w)
			}
			g = walked(func(y func(Prefix, int) bool) { got.CoveredBy(q, y) })
			w = walked(func(y func(Prefix, int) bool) { want.CoveredBy(q, y) })
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d: CoveredBy(%s) = %v, want %v", seed, q, g, w)
			}
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
	var b TrieBuilder[int]
	for i, p := range ps {
		*b.At(p) = i
	}
	built := b.Trie()
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
