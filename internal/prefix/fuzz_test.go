package prefix

import (
	"math/rand"
	"net/netip"
	"testing"
)

// FuzzRangeOpMatch differentially fuzzes range-operator matching: the
// radix-trie path (CoveredBy subtree walk + RangeOp.Match: every member
// of a range's set is covered by its base prefix) against a naive
// matcher that enumerates every stored prefix and compares. The fuzzer controls the stored prefix
// population (via a seed) and the query range's base prefix and
// operator (^-, ^+, ^n, ^n-m, or none).
func FuzzRangeOpMatch(f *testing.F) {
	f.Add(int64(1), uint32(0x0a000000), uint8(8), uint8(0), uint8(0), uint8(0))
	f.Add(int64(2), uint32(0x0a000000), uint8(8), uint8(1), uint8(0), uint8(0))  // ^-
	f.Add(int64(3), uint32(0x0a000000), uint8(8), uint8(2), uint8(0), uint8(0))  // ^+
	f.Add(int64(4), uint32(0x0a000000), uint8(8), uint8(3), uint8(24), uint8(0)) // ^24
	f.Add(int64(5), uint32(0xc0000200), uint8(16), uint8(4), uint8(20), uint8(28))
	f.Add(int64(6), uint32(0), uint8(0), uint8(2), uint8(0), uint8(0)) // 0.0.0.0/0^+

	f.Fuzz(func(t *testing.T, seed int64, baseAddr uint32, baseBits, opKind, n, m uint8) {
		if baseBits > 32 {
			t.Skip()
		}
		var op RangeOp
		switch opKind % 5 {
		case 0:
			op = NoOp
		case 1:
			op = RangeOp{Kind: RangeMinus}
		case 2:
			op = RangeOp{Kind: RangePlus}
		case 3:
			op = RangeOp{Kind: RangeExact, N: int(n % 33)}
		case 4:
			lo, hi := int(n%33), int(m%33)
			if lo > hi {
				lo, hi = hi, lo
			}
			op = RangeOp{Kind: RangeSpan, N: lo, M: hi}
		}
		var b4 [4]byte
		b4[0] = byte(baseAddr >> 24)
		b4[1] = byte(baseAddr >> 16)
		b4[2] = byte(baseAddr >> 8)
		b4[3] = byte(baseAddr)
		base, err := netip.AddrFrom4(b4).Prefix(int(baseBits))
		if err != nil {
			t.Skip()
		}
		r := Range{Prefix: Prefix{base}, Op: op}

		// Stored population: random prefixes clustered near the base so
		// the interesting (covered, boundary-length) cases are dense.
		rng := rand.New(rand.NewSource(seed))
		var stored []Prefix
		var tr *Trie[struct{}]
		for i := 0; i < 48; i++ {
			addr := baseAddr ^ (rng.Uint32() >> uint(rng.Intn(33)))
			bits := rng.Intn(33)
			var ab [4]byte
			ab[0] = byte(addr >> 24)
			ab[1] = byte(addr >> 16)
			ab[2] = byte(addr >> 8)
			ab[3] = byte(addr)
			p, err := netip.AddrFrom4(ab).Prefix(bits)
			if err != nil {
				continue
			}
			sp := Prefix{p}
			if _, dup := tr.Get(sp); dup {
				continue
			}
			stored = append(stored, sp)
			tr = tr.Insert(sp, struct{}{})
		}

		// Naive matcher: enumerate and compare every stored prefix.
		naive := make(map[Prefix]bool)
		for _, p := range stored {
			if r.Match(p) {
				naive[p] = true
			}
		}

		var got []Prefix
		tr.CoveredBy(r.Prefix, func(p Prefix, _ struct{}) bool {
			if r.Match(p) {
				got = append(got, p)
			}
			return true
		})
		if len(got) != len(naive) {
			t.Fatalf("range %s: trie matched %d prefixes %v, naive matched %d",
				r, len(got), got, len(naive))
		}
		for _, p := range got {
			if !naive[p] {
				t.Fatalf("range %s: trie matched %s, naive did not", r, p)
			}
		}
	})
}
