package prefix

import (
	"encoding/json"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
)

func TestParseCanonicalizes(t *testing.T) {
	p, err := Parse("192.0.2.77/24")
	if err != nil {
		t.Fatal(err)
	}
	if got := p.String(); got != "192.0.2.0/24" {
		t.Errorf("Parse canonical form = %q, want 192.0.2.0/24", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, s := range []string{"", "10.0.0.0", "10.0.0.0/33", "not-a-prefix", "2001:db8::/129"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestFamilies(t *testing.T) {
	v4 := MustParse("10.0.0.0/8")
	v6 := MustParse("2001:db8::/32")
	if !v4.IsIPv4() || v4.IsIPv6() {
		t.Errorf("10.0.0.0/8 family detection wrong")
	}
	if !v6.IsIPv6() || v6.IsIPv4() {
		t.Errorf("2001:db8::/32 family detection wrong")
	}
}

func TestCovers(t *testing.T) {
	tests := []struct {
		a, b string
		want bool
	}{
		{"10.0.0.0/8", "10.1.0.0/16", true},
		{"10.0.0.0/8", "10.0.0.0/8", true},
		{"10.1.0.0/16", "10.0.0.0/8", false},
		{"10.0.0.0/8", "11.0.0.0/16", false},
		{"0.0.0.0/0", "192.0.2.0/24", true},
		{"2001:db8::/32", "2001:db8:1::/48", true},
		{"10.0.0.0/8", "2001:db8::/32", false}, // cross family
	}
	for _, tc := range tests {
		if got := MustParse(tc.a).Covers(MustParse(tc.b)); got != tc.want {
			t.Errorf("%s covers %s = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestCompareOrdersV4BeforeV6(t *testing.T) {
	v4 := MustParse("255.255.255.255/32")
	v6 := MustParse("::/0")
	if v4.Compare(v6) >= 0 {
		t.Error("IPv4 should sort before IPv6")
	}
	if v6.Compare(v4) <= 0 {
		t.Error("IPv6 should sort after IPv4")
	}
}

func TestParseRangeOp(t *testing.T) {
	tests := []struct {
		in   string
		want RangeOp
		err  bool
	}{
		{"-", RangeOp{Kind: RangeMinus}, false},
		{"+", RangeOp{Kind: RangePlus}, false},
		{"24", RangeOp{Kind: RangeExact, N: 24}, false},
		{"24-32", RangeOp{Kind: RangeSpan, N: 24, M: 32}, false},
		{"32-24", RangeOp{}, true},
		{"abc", RangeOp{}, true},
		{"200", RangeOp{}, true},
	}
	for _, tc := range tests {
		got, err := ParseRangeOp(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("ParseRangeOp(%q) err = %v, want err=%v", tc.in, err, tc.err)
			continue
		}
		if !tc.err && got != tc.want {
			t.Errorf("ParseRangeOp(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestRangeOpMatch(t *testing.T) {
	base := MustParse("10.0.0.0/8")
	tests := []struct {
		op   string
		cand string
		want bool
	}{
		{"", "10.0.0.0/8", true},
		{"", "10.1.0.0/16", false},
		{"-", "10.0.0.0/8", false},
		{"-", "10.1.0.0/16", true},
		{"+", "10.0.0.0/8", true},
		{"+", "10.1.0.0/16", true},
		{"+", "11.0.0.0/8", false},
		{"16", "10.1.0.0/16", true},
		{"16", "10.1.2.0/24", false},
		{"8", "10.0.0.0/8", true},
		{"16-24", "10.1.2.0/24", true},
		{"16-24", "10.1.2.0/25", false},
		{"16-24", "10.0.0.0/8", false},
	}
	for _, tc := range tests {
		op := NoOp
		if tc.op != "" {
			var err error
			op, err = ParseRangeOp(tc.op)
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := op.Match(base, MustParse(tc.cand)); got != tc.want {
			t.Errorf("10.0.0.0/8^%s match %s = %v, want %v", tc.op, tc.cand, got, tc.want)
		}
	}
}

func TestParseRange(t *testing.T) {
	r, err := ParseRange("192.0.2.0/24^+")
	if err != nil {
		t.Fatal(err)
	}
	if r.Op.Kind != RangePlus || r.Prefix.String() != "192.0.2.0/24" {
		t.Errorf("ParseRange = %+v", r)
	}
	if got := r.String(); got != "192.0.2.0/24^+" {
		t.Errorf("Range.String() = %q", got)
	}
	if _, err := ParseRange("192.0.2.0/24^zz"); err == nil {
		t.Error("bad op accepted")
	}
	if _, err := ParseRange("bogus^24"); err == nil {
		t.Error("bad prefix accepted")
	}
}

func TestRangeOpString(t *testing.T) {
	cases := map[string]RangeOp{
		"":       NoOp,
		"^-":     {Kind: RangeMinus},
		"^+":     {Kind: RangePlus},
		"^24":    {Kind: RangeExact, N: 24},
		"^24-28": {Kind: RangeSpan, N: 24, M: 28},
	}
	for want, op := range cases {
		if got := op.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", op, got, want)
		}
	}
}

func TestCompose(t *testing.T) {
	minus := RangeOp{Kind: RangeMinus}
	plus := RangeOp{Kind: RangePlus}
	span := RangeOp{Kind: RangeSpan, N: 24, M: 32}
	if got := Compose(NoOp, span); got != span {
		t.Errorf("Compose(none, span) = %v", got)
	}
	if got := Compose(span, NoOp); got != span {
		t.Errorf("Compose(span, none) = %v", got)
	}
	if got := Compose(minus, plus); got.Kind != RangePlus {
		t.Errorf("Compose(minus, plus) = %v", got)
	}
	if got := Compose(plus, span); got != span {
		t.Errorf("numeric outer should override, got %v", got)
	}
}

func TestTableContains(t *testing.T) {
	tbl := NewTable([]Range{
		{Prefix: MustParse("10.0.0.0/8"), Op: RangeOp{Kind: RangePlus}},
		{Prefix: MustParse("192.0.2.0/24")},
		{Prefix: MustParse("2001:db8::/32"), Op: RangeOp{Kind: RangeSpan, N: 48, M: 64}},
	})
	tests := []struct {
		p    string
		want bool
	}{
		{"10.0.0.0/8", true},
		{"10.20.0.0/16", true},
		{"192.0.2.0/24", true},
		{"192.0.2.0/25", false},
		{"192.0.3.0/24", false},
		{"2001:db8:1::/48", true},
		{"2001:db8::/32", false},
		{"2001:db8::1/128", false},
	}
	for _, tc := range tests {
		if got := tbl.Contains(MustParse(tc.p)); got != tc.want {
			t.Errorf("Contains(%s) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTableContainsWithOp(t *testing.T) {
	tbl := NewTable([]Range{{Prefix: MustParse("10.0.0.0/8")}})
	if tbl.Contains(MustParse("10.1.0.0/16")) {
		t.Fatal("exact table should not match more specific")
	}
	if !tbl.ContainsWithOp(MustParse("10.1.0.0/16"), RangeOp{Kind: RangePlus}) {
		t.Error("outer ^+ should widen the whole table")
	}
	if tbl.ContainsWithOp(MustParse("10.0.0.0/8"), RangeOp{Kind: RangeMinus}) {
		t.Error("outer ^- should exclude the base prefix")
	}
}

func TestTableDeduplicates(t *testing.T) {
	tbl := NewTable([]Range{
		{Prefix: MustParse("10.0.0.0/8")},
		{Prefix: MustParse("10.0.0.0/8")},
		{Prefix: MustParse("10.0.0.0/8"), Op: RangeOp{Kind: RangePlus}},
	})
	if tbl.Len() != 2 {
		t.Errorf("Len = %d, want 2 after dedup", tbl.Len())
	}
}

func TestTableLookupCovering(t *testing.T) {
	tbl := NewTable([]Range{
		{Prefix: MustParse("0.0.0.0/0"), Op: RangeOp{Kind: RangePlus}},
		{Prefix: MustParse("10.0.0.0/8"), Op: RangeOp{Kind: RangePlus}},
		{Prefix: MustParse("10.1.0.0/16")},
	})
	got := tbl.LookupCovering(MustParse("10.1.0.0/16"))
	if len(got) != 3 {
		t.Errorf("LookupCovering found %d entries, want 3: %v", len(got), got)
	}
}

func TestTableEmpty(t *testing.T) {
	tbl := NewTable(nil)
	if tbl.Contains(MustParse("10.0.0.0/8")) {
		t.Error("empty table matched")
	}
	if tbl.Len() != 0 {
		t.Error("empty table has entries")
	}
}

func TestFromPrefixes(t *testing.T) {
	tbl := FromPrefixes([]Prefix{MustParse("192.0.2.0/24")})
	if !tbl.Contains(MustParse("192.0.2.0/24")) {
		t.Error("FromPrefixes lookup failed")
	}
}

func TestPrefixJSONRoundTrip(t *testing.T) {
	p := MustParse("203.0.113.0/24")
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q Prefix
	if err := json.Unmarshal(b, &q); err != nil {
		t.Fatal(err)
	}
	if p.Compare(q) != 0 {
		t.Errorf("round trip: %v != %v", p, q)
	}
}

// randomV4Prefix derives a deterministic IPv4 prefix from fuzz inputs.
func randomV4Prefix(a uint32, bits uint8) Prefix {
	b := int(bits) % 33
	addr := netip.AddrFrom4([4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)})
	pf, _ := addr.Prefix(b)
	return Prefix{pf}
}

func TestQuickCoversTransitive(t *testing.T) {
	f := func(a uint32, ab uint8, b uint32, bb uint8, c uint32, cb uint8) bool {
		p, q, r := randomV4Prefix(a, ab), randomV4Prefix(b, bb), randomV4Prefix(c, cb)
		if p.Covers(q) && q.Covers(r) {
			return p.Covers(r)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(a uint32, ab uint8, b uint32, bb uint8) bool {
		p, q := randomV4Prefix(a, ab), randomV4Prefix(b, bb)
		return p.Compare(q) == -q.Compare(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickTableAgreesWithLinearScan is the core property test: Table's
// binary-search lookup must agree with a naive linear scan on random
// tables and candidates.
func TestQuickTableAgreesWithLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ops := []RangeOp{NoOp, {Kind: RangeMinus}, {Kind: RangePlus},
		{Kind: RangeExact, N: 24}, {Kind: RangeSpan, N: 16, M: 24}}
	for iter := 0; iter < 200; iter++ {
		n := rng.Intn(40)
		ranges := make([]Range, n)
		for i := range ranges {
			ranges[i] = Range{
				Prefix: randomV4Prefix(rng.Uint32(), uint8(rng.Intn(25))),
				Op:     ops[rng.Intn(len(ops))],
			}
		}
		tbl := NewTable(ranges)
		for k := 0; k < 20; k++ {
			cand := randomV4Prefix(rng.Uint32(), uint8(rng.Intn(33)))
			want := false
			for _, r := range ranges {
				if r.Match(cand) {
					want = true
					break
				}
			}
			if got := tbl.Contains(cand); got != want {
				t.Fatalf("iter %d: Contains(%v) = %v, linear scan = %v, table=%v",
					iter, cand, got, want, ranges)
			}
		}
	}
}

func TestRangeKindString(t *testing.T) {
	cases := map[RangeKind]string{
		RangeNone: "none", RangeMinus: "^-", RangePlus: "^+",
		RangeExact: "^n", RangeSpan: "^n-m", RangeKind(99): "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("RangeKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input did not panic")
		}
	}()
	MustParse("banana")
}

func TestZeroPrefixText(t *testing.T) {
	var p Prefix
	b, err := p.MarshalText()
	if err != nil || len(b) != 0 {
		t.Errorf("zero prefix marshals to %q, %v", b, err)
	}
	var q Prefix
	if err := q.UnmarshalText(nil); err != nil || q.IsValid() {
		t.Errorf("empty text unmarshal: %v %v", q, err)
	}
	if err := q.UnmarshalText([]byte("junk")); err == nil {
		t.Error("junk text accepted")
	}
}

func TestComposeMinusOverMinus(t *testing.T) {
	minus := RangeOp{Kind: RangeMinus}
	if got := Compose(minus, minus); got.Kind != RangeMinus {
		t.Errorf("Compose(minus, minus) = %v", got)
	}
	exact := RangeOp{Kind: RangeExact, N: 24}
	if got := Compose(exact, minus); got.Kind != RangeMinus {
		t.Errorf("Compose(exact, minus) = %v", got)
	}
}

func TestTableEntriesSorted(t *testing.T) {
	tbl := NewTable([]Range{
		{Prefix: MustParse("10.0.0.0/8"), Op: RangeOp{Kind: RangePlus}},
		{Prefix: MustParse("10.0.0.0/8")},
		{Prefix: MustParse("9.0.0.0/8")},
	})
	es := tbl.Entries()
	if len(es) != 3 || es[0].Prefix.String() != "9.0.0.0/8" {
		t.Fatalf("entries = %v", es)
	}
	// Same prefix: None sorts before Plus (kind order).
	if !es[1].Op.IsNone() || es[2].Op.Kind != RangePlus {
		t.Errorf("op order = %v %v", es[1].Op, es[2].Op)
	}
}
