package ir

import (
	"os"
	"path/filepath"
	"testing"

	"rpslyzer/internal/prefix"
)

// Coverage for the String/MarshalText surfaces of every IR enum and
// node type, including malformed-input branches.

func TestFilterStringAllKinds(t *testing.T) {
	cases := map[string]*Filter{
		"ANY":              {Kind: FilterAny},
		"NOT ANY":          {Kind: FilterNone},
		"PeerAS":           {Kind: FilterPeerAS},
		"PeerAS^+":         {Kind: FilterPeerAS, Op: prefix.RangeOp{Kind: prefix.RangePlus}},
		"AS1^24":           {Kind: FilterASN, ASN: 1, Op: prefix.RangeOp{Kind: prefix.RangeExact, N: 24}},
		"AS-X":             {Kind: FilterAsSet, Name: "AS-X"},
		"RS-X^-":           {Kind: FilterRouteSet, Name: "RS-X", Op: prefix.RangeOp{Kind: prefix.RangeMinus}},
		"FLTR-X":           {Kind: FilterFilterSet, Name: "FLTR-X"},
		"community(1:2)":   {Kind: FilterCommunity, Call: "(1:2)"},
		"NOT AS1":          {Kind: FilterNot, Left: &Filter{Kind: FilterASN, ASN: 1}},
		"(AS1 OR AS2)":     {Kind: FilterOr, Left: &Filter{Kind: FilterASN, ASN: 1}, Right: &Filter{Kind: FilterASN, ASN: 2}},
		"<?unsupported x>": {Kind: FilterUnsupported, Raw: "x"},
		"<AS1>":            {Kind: FilterPathRegex, Regex: &PathRegex{Root: &PathNode{Kind: PathToken, Term: &PathTerm{Kind: PathASN, ASN: 1}}}},
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("Filter.String() = %q, want %q", got, want)
		}
	}
	var nilF *Filter
	if nilF.String() != "<nil>" {
		t.Error("nil filter string")
	}
	if FilterKind(200).String() != "invalid" {
		t.Error("invalid filter kind string")
	}
}

func TestFilterKindTextRoundTrip(t *testing.T) {
	for k := FilterAny; k <= FilterUnsupported; k++ {
		b, err := k.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var k2 FilterKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("filter kind round trip %v failed", k)
		}
	}
	var k FilterKind
	if err := k.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bad filter kind accepted")
	}
}

func TestPolicyAndASExprKindText(t *testing.T) {
	for k := PolicyTerm; k <= PolicyRefine; k++ {
		b, _ := k.MarshalText()
		var k2 PolicyKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("policy kind round trip %v failed", k)
		}
	}
	var pk PolicyKind
	if err := pk.UnmarshalText([]byte("zzz")); err == nil {
		t.Error("bad policy kind accepted")
	}
	if PolicyKind(200).String() != "invalid" {
		t.Error("invalid policy kind string")
	}

	for k := ASExprNum; k <= ASExprExcept; k++ {
		b, _ := k.MarshalText()
		var k2 ASExprKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("as-expr kind round trip %v failed", k)
		}
	}
	var ak ASExprKind
	if err := ak.UnmarshalText([]byte("zzz")); err == nil {
		t.Error("bad as-expr kind accepted")
	}
	if ASExprKind(200).String() != "invalid" {
		t.Error("invalid as-expr kind string")
	}
	e := &ASExpr{Kind: ASExprAnd,
		Left:  &ASExpr{Kind: ASExprSet, Name: "AS-A"},
		Right: &ASExpr{Kind: ASExprNum, ASN: 2}}
	if e.String() != "(AS-A AND AS2)" {
		t.Errorf("as-expr string = %q", e.String())
	}
	var nilE *ASExpr
	if nilE.String() != "<nil>" {
		t.Error("nil as-expr string")
	}
	if (&ASExpr{Kind: ASExprKind(99)}).String() != "<invalid>" {
		t.Error("invalid as-expr string")
	}
}

func TestRouteSetMemberKindText(t *testing.T) {
	for k := RSMemberPrefix; k <= RSMemberASN; k++ {
		b, _ := k.MarshalText()
		var k2 RouteSetMemberKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("rs-member kind round trip %v failed", k)
		}
	}
	var k RouteSetMemberKind
	if err := k.UnmarshalText([]byte("zzz")); err == nil {
		t.Error("bad rs-member kind accepted")
	}
	if RouteSetMemberKind(200).String() != "invalid" {
		t.Error("invalid rs-member kind string")
	}
}

func TestPathKindsText(t *testing.T) {
	for k := PathToken; k <= PathRepeat; k++ {
		b, _ := k.MarshalText()
		var k2 PathNodeKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("path node kind round trip %v failed", k)
		}
	}
	var nk PathNodeKind
	if err := nk.UnmarshalText([]byte("zzz")); err == nil {
		t.Error("bad path node kind accepted")
	}
	if PathNodeKind(200).String() != "invalid" {
		t.Error("invalid path node kind string")
	}
	for k := PathASN; k <= PathClass; k++ {
		b, _ := k.MarshalText()
		var k2 PathTermKind
		if err := k2.UnmarshalText(b); err != nil || k2 != k {
			t.Errorf("path term kind round trip %v failed", k)
		}
	}
	var tk PathTermKind
	if err := tk.UnmarshalText([]byte("zzz")); err == nil {
		t.Error("bad path term kind accepted")
	}
	if PathTermKind(200).String() != "invalid" {
		t.Error("invalid path term kind string")
	}
}

func TestPathRegexStringForms(t *testing.T) {
	alt := &PathNode{Kind: PathAlt, Children: []*PathNode{
		{Kind: PathToken, Term: &PathTerm{Kind: PathASN, ASN: 1}},
		{Kind: PathToken, Term: &PathTerm{Kind: PathWildcard}},
	}}
	rep := &PathNode{Kind: PathRepeat, Min: 0, Max: 1, Children: []*PathNode{alt}}
	same := &PathNode{Kind: PathRepeat, Min: 2, Max: 3, Same: true, Children: []*PathNode{
		{Kind: PathToken, Term: &PathTerm{Kind: PathPeerAS}},
	}}
	cls := &PathNode{Kind: PathToken, Term: &PathTerm{Kind: PathClass, Negated: true, Elems: []*PathTerm{
		{Kind: PathASRange, ASN: 10, ASNHi: 20},
		{Kind: PathSet, Name: "AS-Z"},
	}}}
	re := &PathRegex{Root: &PathNode{Kind: PathConcat, Children: []*PathNode{rep, same, cls}}}
	want := "(AS1|.)? PeerAS~{2,3} [^AS10-AS20 AS-Z]"
	if got := re.String(); got != want {
		t.Errorf("regex string = %q, want %q", got, want)
	}
	var nilRe *PathRegex
	if nilRe.String() != "" {
		t.Error("nil regex string")
	}
	raw := &PathRegex{Raw: "^AS1$"}
	if raw.String() != "^AS1$" {
		t.Error("raw passthrough")
	}
	var nilNode *PathNode
	if nilNode.String() != "" {
		t.Error("nil node string")
	}
	var nilTerm *PathTerm
	if nilTerm.String() != "?" {
		t.Error("nil term string")
	}
}

func TestAFIIsZero(t *testing.T) {
	if !(AFI{}).IsZero() || AFIIPv4Unicast.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestJSONFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ir.json")
	x := New()
	x.AutNums[7] = &AutNum{ASN: 7, Name: "SEVEN"}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	read := func() (*IR, error) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return ReadJSON(f)
	}
	y, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if y.AutNums[7] == nil || y.AutNums[7].Name != "SEVEN" {
		t.Errorf("file round trip lost data: %+v", y.AutNums)
	}
	if err := os.WriteFile(path, []byte("{invalid"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := read(); err == nil {
		t.Error("corrupt file accepted")
	}
}
