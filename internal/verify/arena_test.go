package verify

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
)

// TestSharingOrder walks the comparator's cases: where each pair of
// routes sorts in the path-first order, and how many pairs the second
// takes from the memo after a bulk arena verified the first. Routes of
// one key share whatever their prefixes' tests agree on.
func TestSharingOrder(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	tagged := func(r bgpsim.Route, comms ...bgpsim.Community) bgpsim.Route {
		r.Communities = comms
		return r
	}
	hashOrder := cmp.Compare(commHash([]bgpsim.Community{1}), commHash([]bgpsim.Community{1, 2}))
	for _, tc := range []struct {
		name   string
		x, y   bgpsim.Route
		cmp    int // compareForSharing(x, y)
		shared int // pairs y takes from the memo after x
	}{
		{"prepending is invisible",
			route("198.51.100.0/24", 900, 100, 200, 300), route("198.51.100.0/24", 900, 900, 100, 200, 200, 200, 300, 300), 0, 3},
		{"a suffix sorts first and is shared whole",
			route("198.51.100.0/24", 200, 300), route("198.51.100.0/24", 901, 100, 200, 300), -1, 1},
		{"the longer path shares only what the shorter has",
			route("198.51.100.0/24", 901, 100, 200, 300), route("198.51.100.0/24", 100, 200, 300), 1, 2},
		{"paths fork at the first differing AS from the origin",
			route("198.51.100.0/24", 900, 100, 200, 300), route("198.51.100.0/24", 900, 101, 200, 300), -1, 1},
		{"a common origin alone shares no pair",
			route("198.51.100.0/24", 900, 100, 300), route("198.51.100.0/24", 900, 200, 300), -1, 0},
		{"different origins",
			route("198.51.100.0/24", 900, 100, 300), route("198.51.100.0/24", 900, 100, 301), -1, 0},
		{"no communities sort first and share nothing with some",
			route("198.51.100.0/24", 900, 100, 300), tagged(route("198.51.100.0/24", 900, 100, 300), bgpsim.BlackholeCommunity), -1, 0},
		{"community lists order by their hash",
			tagged(route("198.51.100.0/24", 900, 100, 300), 1), tagged(route("198.51.100.0/24", 900, 100, 300), 1, 2), hashOrder, 0},
		{"the prefix takes no part in the order; untested, it shares all",
			route("198.51.100.0/24", 900, 100, 300), route("198.51.100.0/25", 900, 100, 300), 0, 2},
		{"prefixes that give the same test results share",
			route("198.51.100.0/24", 100, 200), route("203.0.113.0/24", 100, 200), 0, 1},
		{"a prefix that fails a test the first passed shares nothing",
			route("192.0.2.0/24", 100, 200), route("198.51.100.0/24", 100, 200), 0, 0},
		{"IPv4 sorts before IPv6 and shares nothing with it",
			route("203.0.113.0/24", 900, 100, 300), route("2001:db8::/32", 900, 100, 300), -1, 0},
	} {
		if got := compareForSharing(&tc.x, &tc.y); got != tc.cmp {
			t.Errorf("%s: compare = %d, want %d", tc.name, got, tc.cmp)
		}
		if got := compareForSharing(&tc.y, &tc.x); got != -tc.cmp {
			t.Errorf("%s: reversed compare = %d, want %d", tc.name, got, -tc.cmp)
		}
		a := newBulkArena()
		var first, rep RouteReport
		v.verifyRoute(&tc.x, a, &first, nil, nil)
		v.verifyRoute(&tc.y, a, &rep, nil, nil)
		if got := int(a.pairHits); got != tc.shared {
			t.Errorf("%s: %d pairs shared, want %d", tc.name, got, tc.shared)
		}
		if g, w := reportString(rep), reportString(v.VerifyRoute(tc.y)); g != w {
			t.Errorf("%s: shared report diverged:\n%s\nvs\n%s", tc.name, g, w)
		}
	}
}

// TestSharingSkipsIgnoredRoutes: an AS-set or single-AS route between
// two routes that share a suffix produces no checks and must not make
// the arena forget the route before it.
func TestSharingSkipsIgnoredRoutes(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	asSet := route("198.51.100.0/24", 900, 100, 200, 300)
	asSet.HasASSet = true
	routes := []bgpsim.Route{
		route("198.51.100.0/24", 900, 100, 200, 300),
		route("198.51.100.0/24", 300, 300),
		asSet,
		route("198.51.100.0/24", 901, 100, 200, 300),
	}
	idxs := []int32{0, 1, 2, 3}
	slices.SortFunc(idxs, func(x, y int32) int { return compareForSharing(&routes[x], &routes[y]) })
	a := newBulkArena()
	for _, i := range idxs {
		v.verifyRoute(&routes[i], a, &RouteReport{}, nil, nil)
	}
	if a.pairHits != 2 || a.ignored != 2 || a.routes != 2 {
		t.Errorf("tally = %d pair hits, %d ignored, %d verified; want 2, 2, 2", a.pairHits, a.ignored, a.routes)
	}
}

// TestVerifyAllLaysChecksOutInInputOrder: a partition evaluates in
// sharing order and keeps a route's checks only where they differ from
// its predecessor's there. Every report still reads VerifyRoute's
// checks, in a slice with no room past its end, and a route whose
// checks equal those of its predecessor in sharing order shares its
// slice.
func TestVerifyAllLaysChecksOutInInputOrder(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{Shards: 1})
	var routes []bgpsim.Route
	for i := 0; i < 50; i++ {
		// Descending prefixes: sharing order is not input order.
		pfx := fmt.Sprintf("198.51.%d.0/24", 49-i)
		routes = append(routes, route(pfx, ir.ASN(900+i%3), 100, 200, 300), route(pfx, 300))
	}
	reports := v.VerifyAll(routes, 0)
	for i, rep := range reports {
		if rep.Ignored != "" {
			if rep.Checks != nil {
				t.Fatalf("report %d: ignored route has non-nil checks", i)
			}
			continue
		}
		if g, w := reportString(rep), reportString(v.VerifyRoute(routes[i])); g != w {
			t.Fatalf("report %d diverged from VerifyRoute:\n%s\nvs\n%s", i, g, w)
		}
		if len(rep.Checks) != cap(rep.Checks) {
			t.Fatalf("report %d: checks have cap %d past len %d", i, cap(rep.Checks), len(rep.Checks))
		}
	}
	if held, runs := sharedRuns(t, routes, reports); held != 3 || runs != 3 {
		t.Errorf("%d check slices over %d runs of equal lists, want 3 and 3: one per path", held, runs)
	}
}

// sharedRuns walks the verified reports in the sharing order of a
// sweep whose routes all fall into one partition, and fails where a
// report shares its predecessor's check slice but not its checks or
// has its checks but not its slice. It returns how many slices the
// reports hold and how many runs of equal lists that order has.
func sharedRuns(t *testing.T, routes []bgpsim.Route, reports []RouteReport) (held, runs int) {
	t.Helper()
	idxs := make([]int32, len(routes))
	for i := range idxs {
		idxs[i] = int32(i)
	}
	sharingOrder(routes, idxs)
	seen := make(map[*Check]bool)
	var prev *RouteReport
	for _, i := range idxs {
		rep := &reports[i]
		if rep.Ignored != "" {
			continue
		}
		seen[&rep.Checks[0]] = true
		equal := prev != nil && reportString(*rep) == reportString(*prev)
		shared := prev != nil && &rep.Checks[0] == &prev.Checks[0]
		if equal != shared {
			t.Errorf("route %d (%s %v %v): equal to its predecessor %v, shares its slice %v",
				i, routes[i].Prefix, routes[i].Communities, routes[i].Path, equal, shared)
		}
		if !equal {
			runs++
		}
		prev = rep
	}
	return len(seen), runs
}

// TestVerifyAllSharesEqualCheckLists: over one path, the routes whose
// prefixes split on the path's prefix tests get one check slice per
// run of equal lists in sharing order, and routes that differ only in
// their communities, which the pair memo keeps apart, still share one.
// Run at -cpu 1,2,4 to move the default partition count.
func TestVerifyAllSharesEqualCheckLists(t *testing.T) {
	v := fixture(t, basicRPSL+`
route: 203.0.113.0/24
origin: AS200
`, nil, Config{})
	pass := []string{"192.0.2.0/24", "203.0.113.0/24"} // AS200's own
	fail := []string{"198.51.100.0/24", "192.0.2.0/25", "10.0.0.0/8"}
	var split []bgpsim.Route
	for i := 0; i < 12; i++ {
		pfx := pass[i%len(pass)]
		if i%3 == 2 {
			pfx = fail[i%len(fail)]
		}
		split = append(split, route(pfx, 900, 100, 200), route(pfx, 200))
	}
	var comms []bgpsim.Route
	for i := 0; i < 8; i++ {
		r := route("192.0.2.0/24", 900, 100, 200)
		for c := 0; c < i%4; c++ {
			r.Communities = append(r.Communities, bgpsim.Community(c+1))
		}
		comms = append(comms, r)
	}
	check := func(what string, routes []bgpsim.Route) (held, runs int) {
		reports := v.VerifyAll(routes, 0)
		for i := range reports {
			if g, w := reportString(reports[i]), reportString(v.VerifyRoute(routes[i])); g != w {
				t.Fatalf("%s: report %d diverged from VerifyRoute:\n%s\nvs\n%s", what, i, g, w)
			}
		}
		return sharedRuns(t, routes, reports)
	}
	if held, runs := check("split", split); held != runs || held < 2 || held >= len(split)/2 {
		t.Errorf("prefixes split on a test: %d check slices over %d runs of equal lists for %d routes",
			held, runs, len(split)/2)
	}
	if held, runs := check("communities", comms); held != 1 || runs != 1 {
		t.Errorf("communities: %d check slices over %d runs of equal lists, want 1 and 1", held, runs)
	}
}

// TestStreamRetainsNothing drives a stream whose sink drops every
// report: the live heap is the same late in the stream as early in it,
// because a partition keeps one route's worth of state behind it, not
// a memo that grows with the distinct pairs seen.
func TestStreamRetainsNothing(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{Shards: 2})
	const n = 200_000
	routes := make([]bgpsim.Route, n)
	for i := range routes {
		// Distinct (prefix, collector) everywhere: every route has at
		// least one pair no other route shares.
		r := route("10.0.0.0/24", ir.ASN(1000+i), 100, 200, ir.ASN(300+i%7))
		routes[i] = r
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	var marks []uint64
	delivered := 0
	v.VerifyStream(routes, 0, func(RouteReport) {
		if delivered++; delivered%(n/5) == 0 {
			marks = append(marks, live())
		}
	})
	runtime.KeepAlive(routes) // in every mark, the last one included
	if len(marks) != 5 {
		t.Fatalf("took %d heap marks, want 5", len(marks))
	}
	// Retained, the 160k reports between the first and the last mark
	// would hold 160k x 6 checks, upwards of 38 MB.
	lo, hi := slices.Min(marks), slices.Max(marks)
	if hi-lo > 2<<20 {
		t.Errorf("live heap moved between %d and %d bytes during the stream: %v", lo, hi, marks)
	}
}

// TestCheckSize: Kinds sits in the padding between Status and Reasons,
// so on a 64-bit build a check is the 40 bytes it was without it. A
// sweep holds millions of checks; a larger one costs each of them.
func TestCheckSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 4 {
		t.Skip("a 32-bit build has too little padding there for Kinds")
	}
	if n := unsafe.Sizeof(Check{}); n != 40 {
		t.Errorf("Check is %d bytes, want 40", n)
	}
}
