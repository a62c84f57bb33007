package verify

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
)

// TestSharingOrder walks the comparator's cases: where each pair of
// routes sorts, and how many pairs the second copies from the first
// when a sharing arena verifies them in that order.
func TestSharingOrder(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{})
	tagged := func(r bgpsim.Route, comms ...bgpsim.Community) bgpsim.Route {
		r.Communities = comms
		return r
	}
	for _, tc := range []struct {
		name   string
		x, y   bgpsim.Route
		cmp    int // compareForSharing(x, y)
		shared int // pairs y copies after x
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
		{"different communities share nothing",
			route("198.51.100.0/24", 900, 100, 300), tagged(route("198.51.100.0/24", 900, 100, 300), bgpsim.BlackholeCommunity), -1, 0},
		{"a longer community list sorts after its prefix",
			tagged(route("198.51.100.0/24", 900, 100, 300), 1), tagged(route("198.51.100.0/24", 900, 100, 300), 1, 2), -1, 0},
		{"different prefixes share nothing",
			route("198.51.100.0/24", 900, 100, 300), route("198.51.100.0/25", 900, 100, 300), -1, 0},
		{"IPv4 sorts before IPv6",
			route("203.0.113.0/24", 900, 100, 300), route("2001:db8::/32", 900, 100, 300), -1, 0},
	} {
		if got := compareForSharing(&tc.x, &tc.y); got != tc.cmp {
			t.Errorf("%s: compare = %d, want %d", tc.name, got, tc.cmp)
		}
		if got := compareForSharing(&tc.y, &tc.x); got != -tc.cmp {
			t.Errorf("%s: reversed compare = %d, want %d", tc.name, got, -tc.cmp)
		}
		a := newBulkArena()
		v.verifyRoute(tc.x, a, nil, nil, nil)
		rep := v.verifyRoute(tc.y, a, nil, nil, nil)
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
		v.verifyRoute(routes[i], a, nil, nil, nil)
	}
	if a.pairHits != 2 || a.ignored != 2 || a.routes != 2 {
		t.Errorf("tally = %d pair hits, %d ignored, %d verified; want 2, 2, 2", a.pairHits, a.ignored, a.routes)
	}
}

// TestVerifyAllLaysChecksOutInInputOrder: a partition evaluates in
// sharing order, but the reports' check slices sit back to back in
// input order, so a reader of the reports walks memory forwards.
func TestVerifyAllLaysChecksOutInInputOrder(t *testing.T) {
	v := fixture(t, basicRPSL, nil, Config{Shards: 1})
	var routes []bgpsim.Route
	for i := 0; i < 50; i++ {
		// Descending prefixes: sharing order is the reverse of input order.
		pfx := fmt.Sprintf("198.51.%d.0/24", 49-i)
		routes = append(routes, route(pfx, ir.ASN(900+i%3), 100, 200, 300), route(pfx, 300))
	}
	reports := v.VerifyAll(routes, 0)
	var prev []Check
	for i, rep := range reports {
		if rep.Ignored != "" {
			if rep.Checks != nil {
				t.Fatalf("report %d: ignored route has non-nil checks", i)
			}
			continue
		}
		if len(rep.Checks) != cap(rep.Checks) {
			t.Fatalf("report %d: checks have cap %d past len %d", i, cap(rep.Checks), len(rep.Checks))
		}
		if prev != nil && unsafe.Add(unsafe.Pointer(&prev[0]), uintptr(len(prev))*unsafe.Sizeof(Check{})) != unsafe.Pointer(&rep.Checks[0]) {
			t.Fatalf("report %d: checks do not start where report %d's end", i, i-2)
		}
		prev = rep.Checks
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
