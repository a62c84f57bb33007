package reportstore

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// refStore is the snapshot written the dumbest way: every index a map
// of appended slices or of sets, sorted where the store promises order.
// Its indexes share no code with BuildSnapshot. Its stats and summary
// are one report.Aggregator pass over every report, the one-partition
// case of the freeze, so at -cpu 2 and 4 they hold the merged
// partitions' partials to a single pass.
type refStore struct {
	reports  []verify.RouteReport // the headers it was built from
	checks   []verify.Check       // route by route, ignored routes skipped
	route    []uint32             // checks[i] belongs to reports[route[i]]
	byStatus map[verify.Status][]uint32
	byReason map[verify.ReasonKind][]uint32
	statusAS map[verify.Status]map[ir.ASN]bool
	reasonAS map[verify.ReasonKind]map[ir.ASN]bool
	causeAS  map[report.Cause]map[ir.ASN]bool
	asChecks map[ir.ASN][]uint32
	asRoutes map[ir.ASN][]uint32
	agg      *report.Aggregator
}

func refOwner(c verify.Check) ir.ASN {
	if c.Dir == ir.DirExport {
		return c.From
	}
	return c.To
}

func mark[K comparable](m map[K]map[ir.ASN]bool, k K, asn ir.ASN) {
	if m[k] == nil {
		m[k] = make(map[ir.ASN]bool)
	}
	m[k][asn] = true
}

// sorted returns the members of set ascending.
func sorted(set map[ir.ASN]bool) []ir.ASN {
	var out []ir.ASN
	for asn := range set {
		out = append(out, asn)
	}
	slices.Sort(out)
	return out
}

func buildRef(reports []verify.RouteReport) *refStore {
	ref := &refStore{
		reports:  slices.Clone(reports),
		byStatus: make(map[verify.Status][]uint32),
		byReason: make(map[verify.ReasonKind][]uint32),
		statusAS: make(map[verify.Status]map[ir.ASN]bool),
		reasonAS: make(map[verify.ReasonKind]map[ir.ASN]bool),
		causeAS:  make(map[report.Cause]map[ir.ASN]bool),
		asChecks: make(map[ir.ASN][]uint32),
		asRoutes: make(map[ir.ASN][]uint32),
		agg:      report.NewAggregator(),
	}
	for ri, rep := range reports {
		ref.agg.Add(rep)
		if n := len(rep.Route.Path); n > 0 {
			origin := rep.Route.Path[n-1]
			ref.asRoutes[origin] = append(ref.asRoutes[origin], uint32(ri))
		}
		if rep.Ignored != "" {
			continue
		}
		for _, c := range rep.Checks {
			ci := uint32(len(ref.checks))
			ref.checks = append(ref.checks, c)
			ref.route = append(ref.route, uint32(ri))
			o := refOwner(c)
			ref.asChecks[o] = append(ref.asChecks[o], ci)
			ref.byStatus[c.Status] = append(ref.byStatus[c.Status], ci)
			mark(ref.statusAS, c.Status, o)
			for _, r := range c.Reasons {
				if list := ref.byReason[r.Kind]; len(list) == 0 || list[len(list)-1] != ci {
					ref.byReason[r.Kind] = append(list, ci)
				}
				mark(ref.reasonAS, r.Kind, o)
				if cause, ok := report.CauseOfReason(r.Kind); ok {
					mark(ref.causeAS, cause, o)
				}
			}
		}
	}
	return ref
}

// diffAgainstRef reports every way snap departs from the reference.
func diffAgainstRef(t *testing.T, label string, snap *Snapshot, ref *refStore) {
	t.Helper()
	reports := ref.reports
	fail := func(format string, args ...any) {
		t.Helper()
		t.Errorf("%s: %s", label, fmt.Sprintf(format, args...))
	}

	if snap.NumRoutes() != len(reports) || snap.NumChecks() != len(ref.checks) {
		t.Fatalf("%s: %d routes %d checks, want %d and %d",
			label, snap.NumRoutes(), snap.NumChecks(), len(reports), len(ref.checks))
	}

	// Every route and every check round-trips, in input order.
	next := uint32(0)
	for ri, rep := range reports {
		rec := snap.Route(uint32(ri))
		if rec.Prefix != rep.Route.Prefix || !slices.Equal(rec.Path, rep.Route.Path) || rec.Ignored != rep.Ignored {
			fail("route %d = %+v, want %+v", ri, rec, rep.Route)
		}
		want := uint32(len(rep.Checks))
		if rep.Ignored != "" {
			want = 0
		}
		if rec.CheckLen != want || (want > 0 && rec.CheckOff != next) {
			fail("route %d check range = %d+%d, want %d+%d", ri, rec.CheckOff, rec.CheckLen, next, want)
		}
		next += want
	}
	for ci, want := range ref.checks {
		got := snap.Check(uint32(ci))
		if got.Route != ref.route[ci] || got.From != want.From || got.To != want.To ||
			got.Dir != want.Dir || got.Status != want.Status || got.Owner() != refOwner(want) {
			fail("check %d = %+v, want %+v of route %d", ci, got, want, ref.route[ci])
		}
		if !slices.Equal(got.Reasons, want.Reasons) {
			fail("check %d reasons = %v, want %v", ci, got.Reasons, want.Reasons)
		}
	}

	for st := verify.Status(0); int(st) < report.NumStatuses; st++ {
		idx := snap.ByStatus(st)
		if !slices.Equal(idx.Checks, ref.byStatus[st]) {
			fail("ByStatus(%v).Checks: %d entries, want %d", st, len(idx.Checks), len(ref.byStatus[st]))
		}
		if want := sorted(ref.statusAS[st]); !slices.Equal(idx.ASes, want) {
			fail("ByStatus(%v).ASes = %v, want %v", st, idx.ASes, want)
		}
	}
	for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
		idx := snap.ByReason(k)
		if !slices.Equal(idx.Checks, ref.byReason[k]) {
			fail("ByReason(%v).Checks: %d entries, want %d", k, len(idx.Checks), len(ref.byReason[k]))
		}
		if want := sorted(ref.reasonAS[k]); !slices.Equal(idx.ASes, want) {
			fail("ByReason(%v).ASes = %v, want %v", k, idx.ASes, want)
		}
	}
	for c := report.Cause(0); c < report.NumCauses; c++ {
		if want := sorted(ref.causeAS[c]); !slices.Equal(snap.ByCause(c), want) {
			fail("ByCause(%v) = %v, want %v", c, snap.ByCause(c), want)
		}
	}

	// Per-AS entries: exactly the ASes that own a check or originate a
	// route, each with its checks, routes and aggregate stats.
	all := make(map[ir.ASN]bool)
	for asn := range ref.asChecks {
		all[asn] = true
	}
	for asn := range ref.asRoutes {
		all[asn] = true
	}
	if want := sorted(all); !slices.Equal(snap.ASNs(), want) {
		fail("ASNs() = %v, want %v", snap.ASNs(), want)
	}
	stats := make(map[ir.ASN]*report.ASStats)
	for _, st := range ref.agg.PerAS() {
		stats[st.ASN] = st
	}
	for asn := range all {
		e, ok := snap.AS(asn)
		if !ok {
			fail("AS%d missing", asn)
			continue
		}
		if !slices.Equal(e.Checks, ref.asChecks[asn]) || !slices.Equal(e.Routes, ref.asRoutes[asn]) {
			fail("AS%d: %d checks %d routes, want %d and %d",
				asn, len(e.Checks), len(e.Routes), len(ref.asChecks[asn]), len(ref.asRoutes[asn]))
		}
		if !reflect.DeepEqual(e.Stats, stats[asn]) {
			fail("AS%d stats = %+v, want %+v", asn, e.Stats, stats[asn])
		}
	}

	sum, agg := snap.Summary(), ref.agg
	if want := (Summary{Routes: agg.Routes, IgnoredASSet: agg.IgnoredASSet, IgnoredSingleAS: agg.IgnoredSingleAS,
		ASes: agg.NumASes(), Pairs: agg.NumPairs(), Checks: agg.Checks, FirstHop: agg.FirstHop}); sum != want {
		fail("summary = %+v, want the aggregator's %+v", sum, want)
	}
}

// freeze holds BuildSnapshot to the reference over reports. Then it
// replaces every report the way Reverify does, wholesale and in fresh
// memory, and holds the snapshot to the same reference again: what the
// snapshot reads of the reports' memory, no replacement may reach.
func freeze(t *testing.T, label string, reports []verify.RouteReport) *Snapshot {
	t.Helper()
	ref := buildRef(reports)
	snap := BuildSnapshot(reports)
	diffAgainstRef(t, label, snap, ref)
	for i := range reports {
		reports[i] = verify.RouteReport{
			Route: bgpsim.Route{Prefix: prefix.MustParse("192.0.2.0/24"), Path: []ir.ASN{666, 667}},
			Checks: []verify.Check{chk(667, 666, ir.DirExport, verify.Skip,
				verify.Reason{Kind: verify.SpecTier1Pair, ASN: 666, Name: "OVERWRITTEN"})},
		}
	}
	diffAgainstRef(t, label+", every report replaced after the freeze", snap, ref)
	return snap
}

// TestStoreDifferential holds the store to the reference over several
// generated universes at two sizes, from the verifier's reports and
// from the same reports after a trip through the JSONL export.
func TestStoreDifferential(t *testing.T) {
	seeds := []int64{1, 2, 3, 5, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, ases := range []int{40, 120} {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("ases=%d/seed=%d", ases, seed), func(t *testing.T) {
				sys, err := core.BuildSynthetic(core.Options{Seed: seed, ASes: ases, Collectors: 4})
				if err != nil {
					t.Fatal(err)
				}
				reports := sys.Verifier.VerifyAll(sys.CollectRoutes(4, seed), 0)
				ignored := 0
				for _, rep := range reports {
					if rep.Ignored != "" {
						ignored++
					}
				}
				if ignored == 0 || ignored == len(reports) {
					t.Fatalf("%d of %d routes ignored: the corpus must mix both", ignored, len(reports))
				}

				// Every fourth report takes the trip through the export
				// (the codec is most of this test's time otherwise).
				var sample []verify.RouteReport
				for i := 0; i < len(reports); i += 4 {
					sample = append(sample, reports[i])
				}
				var buf bytes.Buffer
				if err := report.WriteJSONL(&buf, sample); err != nil {
					t.Fatal(err)
				}
				var decoded []verify.RouteReport
				if err := report.ReadJSONL(&buf, func(rep verify.RouteReport) { decoded = append(decoded, rep) }); err != nil {
					t.Fatal(err)
				}

				verified := slices.Clone(reports)
				snap := freeze(t, "BuildSnapshot", reports)
				freeze(t, "BuildSnapshot after JSONL", decoded)

				// The snapshot holds no check or reason memory of its own:
				// each check it serves is the verifier's, reasons and all.
				for ci := range snap.NumChecks() {
					c := snap.Check(uint32(ci))
					r := &snap.routes[c.Route]
					want := &verified[c.Route].Checks[uint32(ci)-r.off]
					if &r.checks[uint32(ci)-r.off] != want || len(c.Reasons) > 0 && &c.Reasons[0] != &want.Reasons[0] {
						t.Fatalf("check %d is a copy, not the verifier's", ci)
					}
				}
			})
		}
	}
}

// listPool is the memory every decoded reason list is cut from. Its two
// halves hold the same four reasons, so equal lists come out of
// different arrays as well as out of one.
var listPool = func() []verify.Reason {
	half := []verify.Reason{
		{Kind: verify.MatchFilter, ASN: 1, Name: "AS-ONE"},
		{Kind: verify.MatchRemoteAsNum, ASN: 2},
		{Kind: verify.UnrecordedAsSet, Name: "AS-TWO"},
		{Kind: verify.SpecUphill},
	}
	return append(slices.Clone(half), half...)
}()

// decodeReports turns bytes into a few reports over four ASes, every
// byte string a valid input. A route is a header (bits 0-1 path length;
// 2-3 kind: 2 is single-as, 3 as-set; 4-6 number of checks), its path
// and two bytes per check: one for from (bits 0-1), to (2-3), direction
// (4) and status (5-7), one for the reason list, listPool[off:off+n]
// with off in bits 0-2 and n in 3-4, where n = 0 is nil unless bit 5
// asks for an empty list. Seven checks instead take one more byte, b,
// and read the check slice of the report 1+b%4 back, the same memory,
// as a sweep shares one between reports. So paths loop and repeat,
// checks need not follow their path, ignored routes may carry checks,
// check slices alias, and lists alias, nest and overlap.
func decodeReports(data []byte) []verify.RouteReport {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	var reports []verify.RouteReport
	for len(data) > 0 && len(reports) < 24 {
		h := next()
		r := verify.RouteReport{Route: bgpsim.Route{Prefix: prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", len(reports)))}}
		for n := h & 3; n > 0; n-- {
			r.Route.Path = append(r.Route.Path, ir.ASN(1+next()&3))
		}
		switch h >> 2 & 3 {
		case 2:
			r.Ignored = "single-as"
		case 3:
			r.Ignored = "as-set"
		}
		if h>>4&7 == 7 {
			if back := 1 + int(next()%4); back <= len(reports) {
				r.Checks = reports[len(reports)-back].Checks
			}
			reports = append(reports, r)
			continue
		}
		for n := h >> 4 & 7; n > 0; n-- {
			b, l := next(), next()
			c := verify.Check{From: ir.ASN(1 + b&3), To: ir.ASN(1 + b>>2&3), Dir: ir.Direction(b >> 4 & 1), Status: verify.Status(b >> 5 % 6)}
			if off, n := int(l&7), int(l>>3&3); n > 0 || l>>5&1 == 1 {
				c.Reasons = listPool[off:min(off+n, len(listPool))]
			}
			r.Checks = append(r.Checks, c)
		}
		reports = append(reports, r)
	}
	return reports
}

// lists returns the reason lists of every check that has one, nil
// lists left out.
func lists(reports []verify.RouteReport) [][]verify.Reason {
	var out [][]verify.Reason
	for _, rep := range reports {
		for _, c := range rep.Checks {
			if c.Reasons != nil {
				out = append(out, c.Reasons)
			}
		}
	}
	return out
}

// somePair reports whether two of the lists stand in the given relation.
func somePair(ls [][]verify.Reason, rel func(a, b []verify.Reason) bool) bool {
	for i := range ls {
		for _, b := range ls[i+1:] {
			if rel(ls[i], b) {
				return true
			}
		}
	}
	return false
}

func sameStart(a, b []verify.Reason) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// adversarial are the inputs that set a list's address against its
// content, as decodeReports reads them; shape says what each must
// decode to, so that a change to the decoder cannot quietly disarm one.
var adversarial = []struct {
	name  string
	in    []byte
	shape func(ls [][]verify.Reason) bool
}{
	{"equal lists in different arrays", []byte{0x22, 0, 1, 0xa4, 0x10, 0xb4, 0x14}, func(ls [][]verify.Reason) bool {
		return somePair(ls, func(a, b []verify.Reason) bool { return slices.Equal(a, b) && !sameStart(a, b) })
	}},
	{"a list and its sub-slice, and the list again", []byte{0x32, 0, 1, 0xa4, 0x18, 0xb4, 0x10, 0x44, 0x18}, func(ls [][]verify.Reason) bool {
		return somePair(ls, func(a, b []verify.Reason) bool { return sameStart(a, b) && len(a) != len(b) })
	}},
	{"an empty list that is not nil", []byte{0x22, 0, 1, 0xa4, 0x20, 0x54, 0x08}, func(ls [][]verify.Reason) bool {
		return slices.ContainsFunc(ls, func(l []verify.Reason) bool { return len(l) == 0 })
	}},
	{"every check sharing one list", []byte{0x42, 0, 1, 0xa4, 0x11, 0xb4, 0x11, 0x44, 0x11, 0x54, 0x11, 0x23, 3, 2, 0, 0xa6, 0x11, 0xb6, 0x11}, func(ls [][]verify.Reason) bool {
		return len(ls) == 6 && !somePair(ls, func(a, b []verify.Reason) bool { return !sameStart(a, b) || len(a) != len(b) })
	}},
	{"no two checks sharing any", []byte{0x42, 0, 1, 0xa4, 0x08, 0xb4, 0x09, 0x44, 0x12, 0x54, 0x1b}, func(ls [][]verify.Reason) bool {
		return len(ls) == 4 && !somePair(ls, func(a, b []verify.Reason) bool { return slices.Equal(a, b) || sameStart(a, b) })
	}},
	{"ignored routes with checks, a path loop, a route with no path", []byte{0x2a, 1, 1, 0xa4, 0x10, 0xb4, 0x10, 0x13, 2, 1, 2, 0x00, 0x19, 0x10, 0xa4, 0x14}, func(ls [][]verify.Reason) bool {
		return len(ls) == 4
	}},
	{"one array at two lengths, the shorter first", []byte{0x22, 0, 1, 0xa4, 0x08, 0x54, 0x18}, func(ls [][]verify.Reason) bool {
		return len(ls) == 2 && sameStart(ls[0], ls[1]) && len(ls[0]) < len(ls[1])
	}},
	{"equal content at two addresses, taking turns across statuses", []byte{0x62, 0, 1, 0x44, 0x19, 0x54, 0x1d, 0x64, 0x19, 0x94, 0x1d, 0xa4, 0x18, 0xb4, 0x1c}, func(ls [][]verify.Reason) bool {
		if len(ls) != 6 {
			return false
		}
		for i := 0; i < len(ls); i += 2 {
			if !slices.Equal(ls[i], ls[i+1]) || sameStart(ls[i], ls[i+1]) {
				return false
			}
		}
		return true
	}},
}

// manyLists is an input no byte string decodes to: 5 200 distinct reason
// lists, more than any memo of the freeze has slots, each list reached
// twice, the second time after thousands of others. Every fourth list
// starts where another ends or shares its start at another length, and
// equal contents sit at hundreds of addresses.
func manyLists() []verify.RouteReport {
	var ls [][]verify.Reason
	for i := range 1300 {
		arr := make([]verify.Reason, 4)
		for j := range arr {
			arr[j] = listPool[(i+j)%len(listPool)]
		}
		ls = append(ls, arr[:1], arr[:2], arr[:4], arr[1:3])
	}
	var reports []verify.RouteReport
	for n := 0; n < 2*len(ls); {
		r := verify.RouteReport{Route: bgpsim.Route{
			Prefix: prefix.MustParse(fmt.Sprintf("10.%d.%d.0/24", len(reports)/256, len(reports)%256)),
			Path:   []ir.ASN{ir.ASN(1 + len(reports)%3), 4},
		}}
		for range 6 {
			// The second sweep takes the lists in another order.
			i := n % len(ls)
			if n >= len(ls) {
				i = n * 7 % len(ls)
			}
			r.Checks = append(r.Checks, verify.Check{From: ir.ASN(1 + n%4), To: ir.ASN(1 + n/4%4),
				Dir: ir.Direction(n % 2), Status: verify.Status(n / 2 % report.NumStatuses), Reasons: ls[i]})
			n++
		}
		reports = append(reports, r)
	}
	return reports
}

// TestStoreDifferentialAdversarialLists: whatever memory a check's
// reason list shares with others', the snapshot serves each check its
// own reasons and indexes it under their kinds, and keeps doing so once
// the reports are replaced.
func TestStoreDifferentialAdversarialLists(t *testing.T) {
	for _, tc := range adversarial {
		t.Run(tc.name, func(t *testing.T) {
			reports := decodeReports(tc.in)
			if !tc.shape(lists(reports)) {
				t.Fatalf("input no longer decodes to its shape: %+v", reports)
			}
			freeze(t, "BuildSnapshot", reports)
		})
	}
	t.Run("more distinct lists than any memo has slots", func(t *testing.T) {
		reports := manyLists()
		type key struct {
			first *verify.Reason
			n     int
		}
		distinct := make(map[key]bool)
		for _, l := range lists(reports) {
			distinct[key{&l[0], len(l)}] = true
		}
		if len(distinct) <= 4096 {
			t.Fatalf("%d distinct lists, want more than 4096", len(distinct))
		}
		freeze(t, "BuildSnapshot", reports)
	})
}

// TestFreezeSharedCheckSlices: the count pass counts a run of reports
// that share one check slice at once, and the snapshot still serves
// and indexes every report's checks as the reference does, wherever
// the slice recurs, whatever breaks the run, and for equal checks in
// distinct slices.
func TestFreezeSharedCheckSlices(t *testing.T) {
	shared := []verify.Check{
		chk(2, 1, ir.DirExport, verify.Verified),
		chk(2, 1, ir.DirImport, verify.Unverified, verify.Reason{Kind: verify.MatchFilter, Name: "AS-ONE"}),
	}
	other := []verify.Check{chk(3, 1, ir.DirImport, verify.Unrecorded, verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 3})}
	route := func(n int, ignored string, checks []verify.Check) verify.RouteReport {
		return verify.RouteReport{
			Route:   bgpsim.Route{Prefix: prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", n)), Path: []ir.ASN{1, 2}},
			Ignored: ignored,
			Checks:  checks,
		}
	}
	for _, tc := range []struct {
		name    string
		reports []verify.RouteReport
	}{
		{"one slice at adjacent positions", []verify.RouteReport{
			route(0, "", shared), route(1, "", shared), route(2, "", shared), route(3, "", other),
		}},
		{"one slice at non-adjacent positions", []verify.RouteReport{
			route(0, "", shared), route(1, "", other), route(2, "", shared), route(3, "", other), route(4, "", shared),
		}},
		{"an ignored report inside a run", []verify.RouteReport{
			route(0, "", shared), route(1, "single-as", shared), route(2, "", shared),
			route(3, "as-set", nil), route(4, "as-set", nil), route(5, "", shared),
		}},
		{"equal checks in distinct slices", []verify.RouteReport{
			route(0, "", shared), route(1, "", slices.Clone(shared)), route(2, "", slices.Clone(shared)), route(3, "", shared),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { freeze(t, "BuildSnapshot", tc.reports) })
	}
}

// TestFreezeTopASNs: routes originated by, and checks owned by, ASNs at
// and above 2^31 (RFC 6996 private ASNs, the reserved 4294967295) are
// indexed like any other, on a 32-bit build too.
func TestFreezeTopASNs(t *testing.T) {
	const priv, top = ir.ASN(4200000000), ir.ASN(4294967295)
	route := func(n int, path ...ir.ASN) verify.RouteReport {
		r := verify.RouteReport{Route: bgpsim.Route{Prefix: prefix.MustParse(fmt.Sprintf("10.%d.0.0/16", n)), Path: path}}
		for i := len(path) - 1; i > 0; i-- {
			from, to := path[i], path[i-1]
			r.Checks = append(r.Checks,
				chk(from, to, ir.DirExport, verify.Unverified, verify.Reason{Kind: verify.MatchFilterAsNum, ASN: from}),
				chk(from, to, ir.DirImport, verify.Unrecorded, verify.Reason{Kind: verify.UnrecordedAutNum, ASN: to}))
		}
		return r
	}
	reports := []verify.RouteReport{
		route(0, 64500, top),
		route(1, top, priv),
		route(2, 64500, priv, 1<<31, top-1),
		route(3, priv, 64500),
	}
	snap := freeze(t, "BuildSnapshot", reports)
	for _, asn := range []ir.ASN{priv, top, top - 1, 1 << 31} {
		if e, ok := snap.AS(asn); !ok || len(e.Checks) == 0 && len(e.Routes) == 0 {
			t.Errorf("AS%d: %+v, %v; want its checks or routes", asn, e, ok)
		}
	}
}

// FuzzFreeze checks the freeze against the reference on whatever
// reports the bytes decode to.
func FuzzFreeze(f *testing.F) {
	for _, tc := range adversarial {
		f.Add(tc.in)
	}
	// Two reports, then three that read the check slices one, two and
	// four reports back, and an ignored one that reads the one before it.
	f.Add([]byte{0x22, 0, 1, 0xa4, 0x10, 0xb4, 0x14, 0x11, 1, 0x44, 0x18,
		0x72, 1, 2, 0, 0x72, 3, 0, 1, 0x72, 1, 2, 3, 0x7a, 1, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) { freeze(t, "BuildSnapshot", decodeReports(data)) })
}

// storeFixture is the reports of TestStoreDifferential's larger universe
// at its first seed.
func storeFixture(tb testing.TB) []verify.RouteReport {
	tb.Helper()
	sys, err := core.BuildSynthetic(core.Options{Seed: 1, ASes: 120, Collectors: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return sys.Verifier.VerifyAll(sys.CollectRoutes(4, 1), 0)
}

// frozen keeps BenchmarkBuildSnapshot's result reachable.
var frozen *Snapshot

// BenchmarkBuildSnapshot is the whole-corpus freeze on its own, for
// profiles (-cpuprofile, -memprofile); it asserts nothing.
func BenchmarkBuildSnapshot(b *testing.B) {
	reports := storeFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frozen = BuildSnapshot(reports)
	}
}

// corpus2k is bench/'s corpus-2k in memory: 2 000 ASes at seed 42 and
// the routes 8 collectors see at seed 42.
func corpus2k(b *testing.B) (*core.System, []bgpsim.Route) {
	b.Helper()
	sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 2000})
	if err != nil {
		b.Fatal(err)
	}
	return sys, sys.CollectRoutes(8, 42)
}

// BenchmarkBuildSnapshot2k is the freeze at the size bench/'s corpus-2k
// runs it: 2 000 ASes at seed 42, routes from 8 collectors, every route
// verified. Its checks carry 3.5 reasons each against
// BenchmarkBuildSnapshot's 1.6, out of a few thousand distinct lists.
func BenchmarkBuildSnapshot2k(b *testing.B) {
	sys, routes := corpus2k(b)
	reports := sys.Verifier.VerifyAll(routes, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frozen = BuildSnapshot(reports)
	}
}

// BenchmarkIncrementalInit2k is the verification half of a reportd
// start over corpus-2k, the step before the freeze: NewIncremental and
// Init (the bulk sweep; the dirtying index waits for the first
// Reverify), with what reportd attaches to the engine's verifier —
// metrics, a tracer sampling at its defaults, a heavy-hitter profiler
// and the shard metrics. Each iteration starts after a collection, as
// a process starts on an empty heap. It reports how many checks the
// reports hold and how many of them the sweep stored: a run of reports
// with equal checks shares one slice.
func BenchmarkIncrementalInit2k(b *testing.B) {
	sys, routes := corpus2k(b)
	var reports []verify.RouteReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		reports = nil // the last iteration's are counted below
		runtime.GC()
		b.StartTimer()
		reg := telemetry.NewRegistry("init")
		tr := trace.New(trace.Config{Sample: map[string]int{"verify": 1024, "compile": 16}})
		prof := verify.NewProfiler(64)
		prof.Register(tr)
		inc, err := verify.NewIncremental(sys.DB, sys.Rels, verify.Config{})
		if err != nil {
			b.Fatal(err)
		}
		inc.Verifier().SetMetrics(verify.NewMetrics(reg))
		inc.Verifier().SetTracer(tr)
		inc.Verifier().SetProfiler(prof)
		inc.Verifier().SetShardMetrics(shard.NewMetrics(reg))
		if reports = inc.Init(routes, 0); len(reports) != len(routes) {
			b.Fatal("missing reports")
		}
	}
	b.StopTimer()
	checks, stored := 0, 0
	seen := make(map[*verify.Check]bool)
	for _, rep := range reports {
		checks += len(rep.Checks)
		if len(rep.Checks) > 0 && !seen[&rep.Checks[0]] {
			seen[&rep.Checks[0]] = true
			stored += len(rep.Checks)
		}
	}
	b.ReportMetric(float64(checks), "checks")
	b.ReportMetric(float64(stored), "stored-checks")
}
