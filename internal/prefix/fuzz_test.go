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

// encodePrefixes writes prefixes in FuzzBuildTrie's input format: per
// prefix a family byte (0 IPv4, 1 IPv6, 2 IPv4-mapped IPv6), a length
// byte and the address bytes.
func encodePrefixes(ss ...string) []byte {
	var out []byte
	for _, s := range ss {
		p := netip.MustParsePrefix(s)
		a := p.Addr()
		switch {
		case a.Is4():
			b := a.As4()
			out = append(append(out, 0, byte(p.Bits())), b[:]...)
		case a.Is4In6():
			b := a.Unmap().As4()
			out = append(append(out, 2, byte(p.Bits())), b[:]...)
		default:
			b := a.As16()
			out = append(append(out, 1, byte(p.Bits())), b[:]...)
		}
	}
	return out
}

// decodePrefixes reads encodePrefixes' format, taking lengths modulo
// the family's width plus one and padding a short last address with
// zeros.
func decodePrefixes(data []byte) []Prefix {
	var out []Prefix
	for len(data) >= 2 {
		fam, n := data[0]%3, int(data[1])
		data = data[2:]
		var b [16]byte
		width := 4
		if fam == 1 {
			width = 16
		}
		data = data[copy(b[:width], data):]
		var a netip.Addr
		switch fam {
		case 0:
			a, n = netip.AddrFrom4([4]byte(b[:4])), n%33
		case 1:
			a, n = netip.AddrFrom16(b), n%129
		case 2:
			a, n = netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16()), 96+n%33
		}
		p, _ := a.Prefix(n)
		out = append(out, Prefix{p})
	}
	return out
}

// FuzzBuildTrie holds BuildTrie to repeated Insert, node for node,
// over fuzzed prefix lists: both families mixed, duplicates, /0, host
// routes, nested chains and addresses with the top bit set.
func FuzzBuildTrie(f *testing.F) {
	for _, seed := range [][]byte{
		encodePrefixes("10.0.0.0/8", "2001:db8::/32", "10.1.0.0/16", "::ffff:10.1.0.0/112", "2001:db8:1::/48", "192.0.2.0/24", "2001:db8::/33"),
		encodePrefixes("10.0.0.0/8", "10.0.0.0/8", "2001:db8::/32", "10.1.0.0/16", "2001:db8::/32", "10.0.0.0/8"),
		encodePrefixes("10.0.0.0/8", "0.0.0.0/0", "2001:db8::/32", "::/0", "0.0.0.0/0", "128.0.0.0/1"),
		encodePrefixes("192.0.2.1/32", "192.0.2.0/32", "2001:db8::1/128", "2001:db8::/128", "192.0.2.0/31", "::/128", "0.0.0.0/32"),
		encodePrefixes("10.0.0.0/24", "10.0.0.0/20", "10.0.0.0/16", "10.0.0.0/12", "10.0.0.0/8", "10.0.0.0/22", "10.0.0.128/25", "10.0.0.192/26"),
		encodePrefixes("255.255.255.255/32", "128.0.0.0/1", "200.0.0.0/8", "ffff::/16", "8000::/1", "ffff:ffff::/32", "255.0.0.0/8", "fe80::/10"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := decodePrefixes(data)
		checkBuiltMatchesInsert(t, ps, ps)
	})
}
