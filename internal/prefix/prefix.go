// Package prefix provides IP prefix types and operations used throughout
// RPSLyzer: parsing of IPv4/IPv6 prefixes, containment tests, RPSL prefix
// range operators (^-, ^+, ^n, ^n-m), and sorted route tables supporting
// binary search by prefix.
//
// The RPSL (RFC 2622 section 2) attaches range operators to address
// prefixes and to set names. A range operator widens a prefix into a set
// of more-specific prefixes; this package implements the matching
// semantics rather than materializing the (potentially huge) sets.
package prefix

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"net/netip"
	"strconv"
	"strings"
)

// Prefix is an IP prefix in canonical (masked) form. It wraps
// netip.Prefix so that the rest of the code base has a single type to
// import, and so methods specific to RPSL semantics can live here.
type Prefix struct {
	netip.Prefix
}

// Parse parses an IPv4 or IPv6 prefix in CIDR notation. The address is
// canonicalized to its masked form, mirroring how IRR daemons normalize
// route objects.
func Parse(s string) (Prefix, error) {
	p, err := netip.ParsePrefix(strings.TrimSpace(s))
	if err != nil {
		return Prefix{}, fmt.Errorf("prefix: %w", err)
	}
	return Prefix{p.Masked()}, nil
}

// MustParse is like Parse but panics on error. For tests and generators.
func MustParse(s string) Prefix {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// FromNetip wraps a netip.Prefix, masking it to canonical form.
func FromNetip(p netip.Prefix) Prefix { return Prefix{p.Masked()} }

// IsIPv4 reports whether the prefix is an IPv4 prefix.
func (p Prefix) IsIPv4() bool { return p.Addr().Is4() }

// IsIPv6 reports whether the prefix is an IPv6 prefix.
func (p Prefix) IsIPv6() bool { return p.Addr().Is6() && !p.Addr().Is4In6() }

// Covers reports whether p contains q: every address in q is in p.
// A prefix covers itself.
func (p Prefix) Covers(q Prefix) bool {
	if p.Addr().Is4() != q.Addr().Is4() {
		return false
	}
	return p.Bits() <= q.Bits() && p.Contains(q.Addr())
}

// Compare orders prefixes by address family (IPv4 first), then address,
// then prefix length. It defines the order used by Table for binary search.
func (p Prefix) Compare(q Prefix) int {
	pa, qa := p.Addr(), q.Addr()
	if pa.Is4() != qa.Is4() {
		if pa.Is4() {
			return -1
		}
		return 1
	}
	if c := pa.Compare(qa); c != 0 {
		return c
	}
	switch {
	case p.Bits() < q.Bits():
		return -1
	case p.Bits() > q.Bits():
		return 1
	}
	return 0
}

// Key is a prefix packed into integers for sorting and grouping: Hi
// and Lo hold its masked address left-aligned in 128 bits (an IPv4
// address in the top 32 bits of Hi), Bits its length. Two prefixes of
// this package (masked) have the same Key exactly when they are equal,
// and SortKeys orders Keys as Prefix.Compare orders prefixes.
type Key struct {
	Hi, Lo uint64
	Bits   uint8
	IPv6   bool // the address is not IPv4 (IPv4-mapped IPv6 included)
}

// Key returns p's Key.
func (p Prefix) Key() Key {
	a, n := p.Addr(), p.Bits()
	var k Key
	if a.Is4() {
		b := a.As4()
		k.Hi = uint64(binary.BigEndian.Uint32(b[:])) << 32
	} else {
		b := a.As16()
		k.Hi, k.Lo, k.IPv6 = binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), true
	}
	return k.masked(n)
}

// Prefix returns the prefix whose Key is k.
func (k Key) Prefix() Prefix {
	var a netip.Addr
	if k.IPv6 {
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], k.Hi)
		binary.BigEndian.PutUint64(b[8:], k.Lo)
		a = netip.AddrFrom16(b)
	} else {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], uint32(k.Hi>>32))
		a = netip.AddrFrom4(b)
	}
	return Prefix{netip.PrefixFrom(a, int(k.Bits))}
}

// masked returns the Key of k's address cut to its first n bits.
func (k Key) masked(n int) Key {
	k.Hi &= ^uint64(0) << (64 - min(n, 64))
	k.Lo &= ^uint64(0) << (128 - max(n, 64))
	k.Bits = uint8(n)
	return k
}

// PosKey is the Key of the prefix at position Pos of some list, laid
// out flat in 24 bytes: SortKeys moves every PosKey on every pass.
type PosKey struct {
	Hi, Lo uint64
	Pos    int32
	Bits   uint8
	IPv6   bool
}

// At returns k as the Key of the prefix at position pos.
func (k Key) At(pos int) PosKey { return PosKey{k.Hi, k.Lo, int32(pos), k.Bits, k.IPv6} }

// Key returns k's Key.
func (k *PosKey) Key() Key { return Key{k.Hi, k.Lo, k.Bits, k.IPv6} }

// SortKeys sorts ks by Key in Compare order, stably: entries with
// equal Keys keep their order. IPv4 Keys go first, then each family is
// sorted by a least-significant-digit radix sort, one byte per pass,
// that skips every byte no two of its Keys differ in (IPv4 addresses
// leave Lo and half of Hi alone): a few linear passes and one scratch
// copy of ks.
func SortKeys(ks []PosKey) {
	v4 := 0
	for i := range ks {
		if !ks[i].IPv6 {
			v4++
		}
	}
	tmp := make([]PosKey, len(ks))
	at := [2]int{0, v4}
	for _, k := range ks {
		f := famOf(k.Key())
		tmp[at[f]] = k
		at[f]++
	}
	for _, family := range [2][2]int{{0, v4}, {v4, len(ks)}} {
		lo, hi := family[0], family[1]
		if lo == hi {
			continue
		}
		if sorted := radixSort(tmp[lo:hi], ks[lo:hi]); &sorted[0] != &ks[lo] {
			copy(ks[lo:hi], sorted)
		}
	}
}

// radixSort sorts src, one family's Keys, stably by (Hi, Lo, Bits)
// with dst as scratch, and returns whichever of the two holds the
// result.
func radixSort(src, dst []PosKey) []PosKey {
	var diff [3]uint64 // per word, the bits some Key differs in from the first
	for i := range src {
		for w := range diff {
			diff[w] |= src[i].word(w) ^ src[0].word(w)
		}
	}
	for w := range diff {
		for shift := 0; shift < 64; shift += 8 {
			if diff[w]>>shift&0xff == 0 {
				continue
			}
			var at [256]int
			for i := range src {
				at[src[i].word(w)>>shift&0xff]++
			}
			sum := 0
			for d, n := range at {
				at[d], sum = sum, sum+n
			}
			for i := range src {
				d := src[i].word(w) >> shift & 0xff
				dst[at[d]] = src[i]
				at[d]++
			}
			src, dst = dst, src
		}
	}
	return src
}

// word returns the w-th word of a family's Key order, least
// significant first: the length, then the low and high address halves.
func (k *PosKey) word(w int) uint64 {
	switch w {
	case 0:
		return uint64(k.Bits)
	case 1:
		return k.Lo
	}
	return k.Hi
}

// famOf is famIndex for a Key.
func famOf(k Key) int {
	if k.IPv6 {
		return 1
	}
	return 0
}

// common returns the number of leading address bits k and l share
// (128 when the addresses are equal).
func (k Key) common(l Key) int {
	if x := k.Hi ^ l.Hi; x != 0 {
		return bits.LeadingZeros64(x)
	}
	return 64 + bits.LeadingZeros64(k.Lo^l.Lo)
}

// covers reports whether k's prefix covers l's; both are one family.
func (k Key) covers(l Key) bool { return k.Bits <= l.Bits && k.common(l) >= int(k.Bits) }

// bit returns bit i (0 = most significant) of k's address.
func (k Key) bit(i int) int {
	if i < 64 {
		return int(k.Hi>>(63-i)) & 1
	}
	return int(k.Lo>>(127-i)) & 1
}

// RangeKind enumerates RPSL prefix range operators.
type RangeKind uint8

const (
	// RangeNone means no operator: exact-match the prefix.
	RangeNone RangeKind = iota
	// RangeMinus is ^-: all more-specifics excluding the prefix itself.
	RangeMinus
	// RangePlus is ^+: the prefix and all its more-specifics.
	RangePlus
	// RangeExact is ^n: more-specifics (inclusive) whose length is exactly n.
	RangeExact
	// RangeSpan is ^n-m: more-specifics (inclusive) with length in [n, m].
	RangeSpan
)

// String renders the kind for diagnostics.
func (k RangeKind) String() string {
	switch k {
	case RangeNone:
		return "none"
	case RangeMinus:
		return "^-"
	case RangePlus:
		return "^+"
	case RangeExact:
		return "^n"
	case RangeSpan:
		return "^n-m"
	}
	return "invalid"
}

// RangeOp is an RPSL prefix range operator, possibly absent (RangeNone).
type RangeOp struct {
	Kind RangeKind `json:"kind"`
	N    int       `json:"n,omitempty"`
	M    int       `json:"m,omitempty"`
}

// NoOp is the absent range operator.
var NoOp = RangeOp{Kind: RangeNone}

// ParseRangeOp parses the text of a range operator without the leading
// caret, e.g. "-", "+", "24", "24-32".
func ParseRangeOp(s string) (RangeOp, error) {
	switch s {
	case "-":
		return RangeOp{Kind: RangeMinus}, nil
	case "+":
		return RangeOp{Kind: RangePlus}, nil
	}
	if i := strings.IndexByte(s, '-'); i >= 0 {
		n, err1 := strconv.Atoi(s[:i])
		m, err2 := strconv.Atoi(s[i+1:])
		if err1 != nil || err2 != nil || n < 0 || m < n || m > 128 {
			return RangeOp{}, fmt.Errorf("prefix: invalid range operator ^%s", s)
		}
		return RangeOp{Kind: RangeSpan, N: n, M: m}, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 || n > 128 {
		return RangeOp{}, fmt.Errorf("prefix: invalid range operator ^%s", s)
	}
	return RangeOp{Kind: RangeExact, N: n}, nil
}

// String renders the operator in RPSL syntax ("" when absent).
func (op RangeOp) String() string {
	switch op.Kind {
	case RangeNone:
		return ""
	case RangeMinus:
		return "^-"
	case RangePlus:
		return "^+"
	case RangeExact:
		return fmt.Sprintf("^%d", op.N)
	case RangeSpan:
		return fmt.Sprintf("^%d-%d", op.N, op.M)
	}
	return "^?"
}

// IsNone reports whether the operator is absent.
func (op RangeOp) IsNone() bool { return op.Kind == RangeNone }

// Match reports whether candidate prefix p is in the set described by
// base prefix b widened by the operator. With RangeNone this is exact
// equality; otherwise it follows RFC 2622 section 2:
//
//	b^-    more-specifics of b, excluding b
//	b^+    b and its more-specifics
//	b^n    more-specifics of b (inclusive) of length exactly n
//	b^n-m  more-specifics of b (inclusive) of length n through m
func (op RangeOp) Match(b, p Prefix) bool {
	switch op.Kind {
	case RangeNone:
		return b.Compare(p) == 0
	case RangeMinus:
		return b.Covers(p) && p.Bits() > b.Bits()
	case RangePlus:
		return b.Covers(p)
	case RangeExact:
		return b.Covers(p) && p.Bits() == op.N
	case RangeSpan:
		return b.Covers(p) && p.Bits() >= op.N && p.Bits() <= op.M
	}
	return false
}

// Compose merges an outer operator applied to a member that already
// carries an inner operator, per RFC 2622: the result spans from the
// minimum length implied by the inner operator to the range of the outer
// one. In practice tools approximate: outer ^- and ^+ widen, outer
// ^n / ^n-m override the upper range. We implement the RFC's
// interpretation used by IRRToolSet: applying an operator to a set
// applies it to every member, replacing a weaker operator.
func Compose(inner, outer RangeOp) RangeOp {
	if outer.IsNone() {
		return inner
	}
	if inner.IsNone() {
		return outer
	}
	// Both present: the outer operator governs the final length window.
	// ^- and ^+ keep the inner lower bound open; numeric outer ops take over.
	switch outer.Kind {
	case RangePlus:
		// inner^+ == widen to include everything inner reached plus more
		// specifics; the union is "all more specifics inclusive".
		return RangeOp{Kind: RangePlus}
	case RangeMinus:
		if inner.Kind == RangeMinus {
			return RangeOp{Kind: RangeMinus}
		}
		return RangeOp{Kind: RangeMinus}
	default:
		return outer
	}
}

// A Range couples a prefix with a range operator; it is the element type
// of RPSL prefix sets such as { 10.0.0.0/8^+, 192.0.2.0/24 }.
type Range struct {
	Prefix Prefix  `json:"prefix"`
	Op     RangeOp `json:"op"`
}

// ParseRange parses "prefix[^op]".
func ParseRange(s string) (Range, error) {
	s = strings.TrimSpace(s)
	op := NoOp
	if i := strings.IndexByte(s, '^'); i >= 0 {
		parsed, err := ParseRangeOp(s[i+1:])
		if err != nil {
			return Range{}, err
		}
		op = parsed
		s = s[:i]
	}
	p, err := Parse(s)
	if err != nil {
		return Range{}, err
	}
	return Range{Prefix: p, Op: op}, nil
}

// Match reports whether p is in the set described by the range.
func (r Range) Match(p Prefix) bool { return r.Op.Match(r.Prefix, p) }

// String renders the range in RPSL syntax.
func (r Range) String() string { return r.Prefix.String() + r.Op.String() }

// MarshalText implements encoding.TextMarshaler for JSON map keys and
// compact encodings. The zero Prefix marshals as the empty string.
func (p Prefix) MarshalText() ([]byte, error) {
	if !p.IsValid() {
		return nil, nil
	}
	return []byte(p.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler. The empty string
// decodes to the zero Prefix.
func (p *Prefix) UnmarshalText(b []byte) error {
	if len(b) == 0 {
		*p = Prefix{}
		return nil
	}
	parsed, err := Parse(string(b))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
