package verify

import (
	"fmt"
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
)

// memoCases are hand-built universes, one per kind of prefix test a
// pair's evaluation can run, each with two routes on one path whose
// prefixes disagree on exactly that test: the route tables of an ASN,
// with and without a range operator, of an as-set and of a route-set;
// a literal prefix set; PeerAS; the Export Self relaxation's customer
// cone; and the address family, which the memo key carries.
var memoCases = []struct {
	name string
	rpsl string
	rels func(*asrel.Database)
	path []ir.ASN // collector first, origin last
	pass string
	fail string
}{
	{"route table", `
aut-num: AS100
import: from AS200 accept AS200

route: 192.0.2.0/24
origin: AS200
`, nil, []ir.ASN{100, 200}, "192.0.2.0/24", "198.51.100.0/24"},
	{"route table under an operator", `
aut-num: AS100
import: from AS200 accept AS200^+

route: 192.0.2.0/24
origin: AS200
`, nil, []ir.ASN{100, 200}, "192.0.2.128/25", "192.0.3.0/25"},
	{"as-set table", `
as-set: AS-X
members: AS200

aut-num: AS100
import: from AS200 accept AS-X

route: 192.0.2.0/24
origin: AS200
`, nil, []ir.ASN{100, 200}, "192.0.2.0/24", "198.51.100.0/24"},
	{"route-set table", `
route-set: RS-X
members: 192.0.2.0/24

aut-num: AS100
import: from AS200 accept RS-X
`, nil, []ir.ASN{100, 200}, "192.0.2.0/24", "198.51.100.0/24"},
	{"literal prefix ranges", `
aut-num: AS100
import: from AS200 accept {10.0.0.0/8^+, 192.0.2.0/24^-}
`, nil, []ir.ASN{100, 200}, "192.0.2.0/25", "192.0.2.0/24"},
	{"PeerAS", `
aut-num: AS100
import: from AS200 accept PeerAS

route: 192.0.2.0/24
origin: AS200
`, nil, []ir.ASN{100, 200}, "192.0.2.0/24", "198.51.100.0/24"},
	{"export-self cone", `
aut-num: AS200
export: to AS100 announce AS200

route: 203.0.113.0/24
origin: AS200

route: 192.0.2.0/24
origin: AS300

route: 198.51.100.0/24
origin: AS999
`, func(d *asrel.Database) {
		d.AddP2C(200, 300)
	}, []ir.ASN{100, 200, 300}, "192.0.2.0/24", "198.51.100.0/24"},
	{"family", `
aut-num: AS100
mp-import: afi ipv6.unicast from AS200 accept ANY
`, nil, []ir.ASN{100, 200}, "::ffff:192.0.2.0/120", "192.0.2.0/24"},
}

// TestPairMemoRecordsEveryPrefixTest verifies each memoCases pair of
// routes through a bulk arena, in both orders, and through VerifyAll:
// every report must be VerifyRoute's, though the second route shares
// the first's key at every pair. A trace that left out the case's test,
// or a key that left out the family, would hand the second route the
// first one's checks. The cases' two prefixes must give VerifyRoute
// different reports, or the case tests nothing.
func TestPairMemoRecordsEveryPrefixTest(t *testing.T) {
	for _, tc := range memoCases {
		v := fixture(t, tc.rpsl, tc.rels, Config{})
		var routes []bgpsim.Route
		for _, pfx := range []string{tc.pass, tc.fail} {
			routes = append(routes, route(pfx, tc.path...))
		}
		want := []string{reportString(v.VerifyRoute(routes[0])), reportString(v.VerifyRoute(routes[1]))}
		if want[0] == want[1] {
			t.Fatalf("%s: both prefixes get the same report; the case tests nothing:\n%s", tc.name, want[0])
		}
		for _, order := range [][2]int{{0, 1}, {1, 0}} {
			a := newBulkArena()
			for _, i := range order {
				var rep RouteReport
				v.verifyRoute(&routes[i], a, &rep, nil, nil)
				if got := reportString(rep); got != want[i] {
					t.Errorf("%s: %s after %s through the memo:\n%s\nwant\n%s",
						tc.name, routes[i].Prefix, routes[order[0]].Prefix, got, want[i])
				}
			}
			if shared, pairs := a.pairHits, len(tc.path)-1; shared != int64(pairs-1) {
				t.Errorf("%s: the memo served %d of the second route's %d pairs, want all but the one whose test differs",
					tc.name, shared, pairs)
			}
		}
		for i, rep := range v.VerifyAll(routes, 0) {
			if got := reportString(rep); got != want[i] {
				t.Errorf("%s: VerifyAll's report for %s:\n%s\nwant\n%s", tc.name, routes[i].Prefix, got, want[i])
			}
		}
	}
}

// TestPairMemoLevelIsBounded gives one key more prefixes than a level
// holds variants: AS100's rules accept one /24 each, so each prefix
// leaves its own trace. The level starts over when full, and every
// report is still VerifyRoute's.
func TestPairMemoLevelIsBounded(t *testing.T) {
	text := "aut-num: AS100\n"
	var routes []bgpsim.Route
	for i := range maxVariants + 4 {
		pfx := fmt.Sprintf("10.0.%d.0/24", i)
		text += fmt.Sprintf("import: from AS200 accept {%s}\n", pfx)
		routes = append(routes, route(pfx, 100, 200))
	}
	v := fixture(t, text, nil, Config{})
	a := newBulkArena()
	for i := range routes {
		var rep RouteReport
		v.verifyRoute(&routes[i], a, &rep, nil, nil)
		if got, want := reportString(rep), reportString(v.VerifyRoute(routes[i])); got != want {
			t.Errorf("%s through the memo:\n%s\nwant\n%s", routes[i].Prefix, got, want)
		}
		if n := len(a.memo.levels[0].variants); n > maxVariants {
			t.Fatalf("after %d routes the level holds %d variants, want at most %d", i+1, n, maxVariants)
		}
	}
	if a.pairHits != 0 {
		t.Errorf("the memo served %d pairs, want none: every prefix takes its own branch", a.pairHits)
	}
}
