package reportstore

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/verify"
)

// refStore is the snapshot written the dumbest way: every index a map
// of appended slices or of sets, sorted where the store promises order.
// It shares no code with Builder.
type refStore struct {
	checks   []verify.Check // arena order: route by route, ignored routes skipped
	route    []uint32       // checks[i] belongs to reports[route[i]]
	byStatus map[verify.Status][]uint32
	byReason map[verify.ReasonKind][]uint32
	statusAS map[verify.Status]map[ir.ASN]bool
	reasonAS map[verify.ReasonKind]map[ir.ASN]bool
	causeAS  map[report.Cause]map[ir.ASN]bool
	asChecks map[ir.ASN][]uint32
	asRoutes map[ir.ASN][]uint32
	agg      *report.Aggregator
}

func owner(c verify.Check) ir.ASN {
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
			o := owner(c)
			ref.asChecks[o] = append(ref.asChecks[o], ci)
			ref.byStatus[c.Status] = append(ref.byStatus[c.Status], ci)
			mark(ref.statusAS, c.Status, o)
			for _, r := range c.Reasons {
				ref.byReason[r.Kind] = append(ref.byReason[r.Kind], ci)
				mark(ref.reasonAS, r.Kind, o)
				if cause, ok := report.CauseOfReason(r.Kind); ok {
					mark(ref.causeAS, cause, o)
				}
			}
		}
	}
	return ref
}

// diffAgainstRef reports every way snap departs from the reference
// built over the same reports.
func diffAgainstRef(t *testing.T, label string, snap *Snapshot, reports []verify.RouteReport) {
	t.Helper()
	ref := buildRef(reports)
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
			got.Dir != want.Dir || got.Status != want.Status || got.Owner() != owner(want) {
			fail("check %d = %+v, want %+v of route %d", ci, got, want, ref.route[ci])
		}
		// CheckReasons gives nil for no reasons; a decoded report may
		// carry an empty slice there.
		if reasons := snap.CheckReasons(got); !slices.Equal(reasons, want.Reasons) {
			fail("check %d reasons = %v, want %v", ci, reasons, want.Reasons)
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

	agg := snap.Aggregator()
	if agg.Routes != ref.agg.Routes || agg.Checks != ref.agg.Checks || agg.FirstHop != ref.agg.FirstHop ||
		agg.IgnoredASSet != ref.agg.IgnoredASSet || agg.IgnoredSingleAS != ref.agg.IgnoredSingleAS ||
		agg.NumPairs() != ref.agg.NumPairs() || !reflect.DeepEqual(agg.RouteMixes(), ref.agg.RouteMixes()) {
		fail("aggregator departs from one fed the same reports")
	}
}

// viaBuilder is the streaming way to the same snapshot.
func viaBuilder(reports []verify.RouteReport) *Snapshot {
	b := NewBuilder()
	for _, rep := range reports {
		b.Add(rep)
	}
	return b.Build()
}

// TestStoreDifferential holds the store to the reference over several
// generated universes at two sizes: built in one shot and streamed,
// from the verifier's reports and from the same reports after a trip
// through the JSONL export. Both ways are held to one reference, so
// BuildSnapshot ≡ Builder.Add follows.
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
				ignored, offered := 0, 0
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

				oneShot := BuildSnapshot(reports)
				diffAgainstRef(t, "BuildSnapshot", oneShot, reports)
				diffAgainstRef(t, "Builder.Add", viaBuilder(reports), reports)
				diffAgainstRef(t, "BuildSnapshot after JSONL", BuildSnapshot(decoded), decoded)
				diffAgainstRef(t, "Builder.Add after JSONL", viaBuilder(decoded), decoded)

				// The universes repeat reason lists (the property the
				// arena's sharing lives on); say so if one stops.
				for i := 0; i < oneShot.NumChecks(); i++ {
					offered += int(oneShot.Check(uint32(i)).ReasonLen)
				}
				if offered <= len(oneShot.reasons) {
					t.Errorf("%d reasons offered, %d stored: no list was shared", offered, len(oneShot.reasons))
				}
			})
		}
	}
}

// TestSharedListsSurviveHashCollision offers two different reason
// lists under one hash: the content compare must keep them apart, so
// both read back intact whichever the table remembers.
func TestSharedListsSurviveHashCollision(t *testing.T) {
	a := []verify.Reason{{Kind: verify.MatchFilter, ASN: 10, Name: "AS-A"}, {Kind: verify.MatchRemoteAsNum, ASN: 7}}
	c := []verify.Reason{{Kind: verify.MatchFilter, ASN: 10, Name: "AS-C"}, {Kind: verify.MatchRemoteAsNum, ASN: 7}}
	b := NewBuilder()
	const h = 42
	la, lc := *b.share(h, a), *b.share(h, c)
	if la.off == lc.off {
		t.Fatalf("different lists share arena range %d+%d", la.off, la.n)
	}
	// Each list again: whichever the table holds is found, the other
	// is appended once more; neither may come back as its rival.
	la2, lc2 := *b.share(h, a), *b.share(h, c)
	for _, tc := range []struct {
		l    reasonList
		want []verify.Reason
	}{{la, a}, {lc, c}, {la2, a}, {lc2, c}} {
		got := b.snap.CheckReasons(CheckRec{ReasonOff: tc.l.off, ReasonLen: tc.l.n})
		if !slices.Equal(got, tc.want) {
			t.Errorf("list at %d+%d = %v, want %v", tc.l.off, tc.l.n, got, tc.want)
		}
	}
	// Without a collision a repeated list is stored once.
	if l1, l2 := *b.share(b.hashReasons(a), a), *b.share(b.hashReasons(a), a); l1.off != l2.off {
		t.Errorf("repeated list stored twice, at %d and %d", l1.off, l2.off)
	}
}

// TestAddSurvivesReusedBuffers streams reports whose check and reason
// slices all live in two buffers the caller overwrites between Adds,
// the way a decoder reusing its scratch space would. The store must
// have copied what it keeps: every check reads back as it was offered.
func TestAddSurvivesReusedBuffers(t *testing.T) {
	checkBuf := make([]verify.Check, 2)
	reasonBuf := make([]verify.Reason, 4)
	lists := [][]verify.Reason{
		{{Kind: verify.MatchFilter, ASN: 1, Name: "AS-ONE"}, {Kind: verify.MatchRemoteAsNum, ASN: 2}},
		{{Kind: verify.UnrecordedAsSet, Name: "AS-TWO"}, {Kind: verify.MatchFilter, ASN: 1, Name: "AS-ONE"}},
		{{Kind: verify.SpecUphill}},
	}
	var offered []verify.RouteReport // deep copies, untouched by the overwriting
	b := NewBuilder()
	for i := 0; i < 12; i++ {
		// Two checks per route, their lists rotating so that each list
		// recurs after its first backing bytes are long gone.
		la, lb := lists[i%len(lists)], lists[(i+1)%len(lists)]
		ra := reasonBuf[:copy(reasonBuf, la)]
		rb := reasonBuf[len(ra) : len(ra)+copy(reasonBuf[len(ra):], lb)]
		checkBuf[0] = chk(ir.ASN(100+i), 200, ir.DirExport, verify.Unverified, ra...)
		checkBuf[1] = chk(ir.ASN(100+i), 200, ir.DirImport, verify.Unrecorded, rb...)
		r := rep(t, fmt.Sprintf("10.%d.0.0/16", i), []ir.ASN{200, ir.ASN(100 + i)}, checkBuf...)
		b.Add(r)

		keep := r
		keep.Checks = []verify.Check{checkBuf[0], checkBuf[1]}
		keep.Checks[0].Reasons = slices.Clone(la)
		keep.Checks[1].Reasons = slices.Clone(lb)
		offered = append(offered, keep)

		for j := range reasonBuf {
			reasonBuf[j] = verify.Reason{Kind: verify.SpecTier1Pair, ASN: 666, Name: "OVERWRITTEN"}
		}
		for j := range checkBuf {
			checkBuf[j] = verify.Check{From: 666, To: 666, Status: verify.Skip}
		}
	}
	diffAgainstRef(t, "reused buffers", b.Build(), offered)
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
// asks for an empty list. So paths loop and repeat, checks need not
// follow their path, ignored routes may carry checks, and lists alias,
// nest and overlap.
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
}

// freezeBothWays holds BuildSnapshot and the streaming Builder to the
// reference over the same reports.
func freezeBothWays(t *testing.T, reports []verify.RouteReport) {
	t.Helper()
	diffAgainstRef(t, "BuildSnapshot", BuildSnapshot(reports), reports)
	diffAgainstRef(t, "Builder.Add", viaBuilder(reports), reports)
}

// TestStoreDifferentialAdversarialLists: the freeze may take a list's
// address for its content only where that cannot be told from comparing
// the content.
func TestStoreDifferentialAdversarialLists(t *testing.T) {
	for _, tc := range adversarial {
		t.Run(tc.name, func(t *testing.T) {
			reports := decodeReports(tc.in)
			if !tc.shape(lists(reports)) {
				t.Fatalf("input no longer decodes to its shape: %+v", reports)
			}
			freezeBothWays(t, reports)
		})
	}
}

// FuzzFreeze checks both ways into a snapshot against the reference on
// whatever reports the bytes decode to.
func FuzzFreeze(f *testing.F) {
	for _, tc := range adversarial {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, data []byte) { freezeBothWays(t, decodeReports(data)) })
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
