package reportstore

import (
	"math/bits"
	"runtime"
	"slices"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/report"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/verify"
)

// BuildSnapshot freezes a report slice. The snapshot keeps a copy of
// the report headers and reads their checks and reason lists where they
// are, so the caller must not write those afterwards. Checks may be
// shared between reports; read-only. The verifier never writes them:
// Reverify replaces a report wholesale, in fresh memory, and the
// snapshot does not see the slice it patches.
//
// Every index is built in two passes over GOMAXPROCS contiguous route
// ranges of about equal check counts (cut). The count pass copies its
// range's headers and counts them into the partition's own
// report.Aggregator, a run of reports that share one check slice at
// once (AddRun), writing nothing shared, which tells what every index
// will hold; a serial merge numbers every partition's first check,
// allocates each index at its exact size, gives every partition its
// offsets into it and merges the partials into the snapshot's stats
// and summary; the scatter pass numbers the
// checks and fills the indexes at those offsets, listing each check
// under the kinds it carries (verify.Check.ReasonKinds). Partitions
// follow report order, so every list does too.
func BuildSnapshot(reports []verify.RouteReport) *Snapshot {
	start := time.Now()
	s := &Snapshot{routes: make([]route, len(reports))}
	parts := make([]partition, max(1, min(runtime.GOMAXPROCS(0), len(reports))))
	cut(parts, reports)
	shard.Each(parts, func(pt *partition) { pt.count(s, reports) })
	s.merge(parts)
	shard.Each(parts, func(pt *partition) { pt.scatter(s) })
	s.builtAt = time.Now()
	s.buildTook = s.builtAt.Sub(start)
	return s
}

// cut gives the partitions contiguous route ranges, in order, that hold
// about equal shares of the checks, which the passes' work follows more
// than it follows routes. It reads every report only up to cutSamples
// reports; past that, one report in stride stands for the stride it
// starts, and boundaries fall on multiples of stride: a serial read of
// every header would cost more than the imbalance it removes. A range
// may be empty: with no checks seen, the last partition takes every
// route.
func cut(parts []partition, reports []verify.RouteReport) {
	stride := max(1, len(reports)/cutSamples)
	checks := func(i int) int {
		if reports[i].Ignored != "" {
			return 0 // as the count pass: an ignored route has none
		}
		return len(reports[i].Checks)
	}
	total := 0
	for i := 0; i < len(reports); i += stride {
		total += checks(i)
	}
	ri, seen := 0, 0
	for p := range parts {
		parts[p].lo = ri
		for want := (p + 1) * total / len(parts); ri < len(reports) && seen < want; ri += stride {
			seen += checks(ri)
		}
		ri = min(ri, len(reports))
		parts[p].hi = ri
	}
	parts[len(parts)-1].hi = len(reports)
}

// cutSamples bounds the reports cut reads.
const cutSamples = 4096

// partition is the routes [lo, hi) and what the count pass found there.
// Its AS entries are its own: their counts are its share of each AS,
// and after the merge their Checks and Routes are the windows of the
// AS's lists that its scatter pass fills, as byStatus and byReason are
// of those indexes' check lists.
type partition struct {
	lo, hi  int
	ases    asCursor
	agg     *report.Aggregator
	origins int

	first    uint32 // the number of the range's first check
	byStatus [report.NumStatuses][]uint32
	byReason [verify.NumReasons][]uint32
}

// count copies the partition's report headers into s and counts them,
// each run of reports that share one check slice once.
func (pt *partition) count(s *Snapshot, reports []verify.RouteReport) {
	pt.ases.perAS = make(map[ir.ASN]*ASEntry)
	pt.agg = report.NewAggregator()
	var origin asRun
	run := pt.lo // the first report of the current run
	for ri := pt.lo; ri < pt.hi; ri++ {
		rep, r := &reports[ri], &s.routes[ri]
		r.prefix, r.path, r.ignored = rep.Route.Prefix, rep.Route.Path, rep.Ignored
		// The route is indexed under its origin (last AS on the path) so
		// /v1/as/{asn}/routes answers "what does this AS originate".
		if n := len(r.path); n > 0 {
			origin.at(&pt.ases, r.path[n-1]).nRoutes++
			pt.origins++
		}
		// An ignored route has no checks, even where an imported report
		// carries some: the aggregator counts none of them either.
		if rep.Ignored == "" {
			r.checks = rep.Checks
		}
		if !sameRun(&reports[run], rep) {
			pt.agg.AddRun(&reports[run], ri-run)
			run = ri
		}
	}
	if pt.hi > pt.lo {
		pt.agg.AddRun(&reports[run], pt.hi-run)
	}
	for _, st := range pt.agg.PerAS() {
		pt.ases.at(st.ASN).nChecks = int(st.Imports.Total() + st.Exports.Total())
	}
}

// sameRun reports whether y counts as x does because it is ignored as x
// is and reads the same check slice.
func sameRun(x, y *verify.RouteReport) bool {
	return x.Ignored == y.Ignored && len(x.Checks) == len(y.Checks) &&
		(len(x.Checks) == 0 || &x.Checks[0] == &y.Checks[0])
}

// merge numbers each partition's first check, sums the partitions' AS
// counts into the snapshot's entries, lays every index out at its exact
// size and gives each partition its windows. Then it merges the
// partitions' partials into the first one, whose stats the entries
// point at and whose counts are the summary, and builds the AS lists
// from those stats.
func (s *Snapshot) merge(parts []partition) {
	s.perAS = make(map[ir.ASN]*ASEntry)
	checks, origins := 0, 0
	for p := range parts {
		pt := &parts[p]
		pt.first = uint32(checks)
		checks += int(pt.agg.Checks.Total())
		origins += pt.origins
		for asn, t := range pt.ases.perAS {
			e := s.perAS[asn]
			if e == nil {
				e = &ASEntry{}
				s.perAS[asn] = e
			}
			e.nChecks += t.nChecks
			e.nRoutes += t.nRoutes
		}
	}
	s.checkRoute = make([]uint32, checks)

	// One array for every AS's checks and one for every AS's routes,
	// each AS's range split among the partitions in their order.
	asChecks, asRoutes := make([]uint32, checks), make([]uint32, origins)
	for _, e := range s.perAS {
		e.Checks, asChecks = asChecks[:0:e.nChecks], asChecks[e.nChecks:]
		e.Routes, asRoutes = asRoutes[:0:e.nRoutes], asRoutes[e.nRoutes:]
	}
	for p := range parts {
		for asn, t := range parts[p].ases.perAS {
			e := s.perAS[asn]
			t.Checks, e.Checks = window(e.Checks, t.nChecks)
			t.Routes, e.Routes = window(e.Routes, t.nRoutes)
		}
	}
	for st := range s.byStatus {
		s.byStatus[st].Checks = split(parts, func(pt *partition) (int, *[]uint32) {
			return int(pt.agg.Checks[st]), &pt.byStatus[st]
		})
	}
	for k := range s.byReason {
		s.byReason[k].Checks = split(parts, func(pt *partition) (int, *[]uint32) {
			return int(pt.agg.ReasonChecks[k]), &pt.byReason[k]
		})
	}

	agg := parts[0].agg
	for p := 1; p < len(parts); p++ {
		agg.Merge(parts[p].agg)
	}
	s.summary = Summary{
		Routes: agg.Routes, IgnoredASSet: agg.IgnoredASSet, IgnoredSingleAS: agg.IgnoredSingleAS,
		ASes: agg.NumASes(), Pairs: agg.NumPairs(), Checks: agg.Checks, FirstHop: agg.FirstHop,
	}
	for _, st := range agg.PerAS() {
		s.perAS[st.ASN].Stats = st
	}

	s.asns = make([]ir.ASN, 0, len(s.perAS))
	for asn := range s.perAS {
		s.asns = append(s.asns, asn)
	}
	slices.Sort(s.asns)
	// One walk in ASN order leaves every AS list sorted.
	for _, asn := range s.asns {
		st := s.perAS[asn].Stats
		if st == nil {
			continue
		}
		all := st.All()
		for i := range s.byStatus {
			if all[i] > 0 {
				s.byStatus[i].ASes = append(s.byStatus[i].ASes, asn)
			}
		}
		var causes report.CauseSet
		for k := range s.byReason {
			if st.Reasons&(1<<k) == 0 {
				continue
			}
			s.byReason[k].ASes = append(s.byReason[k].ASes, asn)
			if c, ok := report.CauseOfReason(verify.ReasonKind(k)); ok {
				causes = causes.With(c)
			}
		}
		for c := range s.byCause {
			if causes.Has(report.Cause(c)) {
				s.byCause[c] = append(s.byCause[c], asn)
			}
		}
	}
}

// window returns the next n empty slots after list's entries, to be
// appended to, and list grown over them.
func window(list []uint32, n int) (next, grown []uint32) {
	l := len(list)
	return list[l : l : l+n], list[:l+n]
}

// split lays out one index list, nil if empty: each partition names its
// entry count and its window, which it gets in partition order.
func split(parts []partition, share func(*partition) (int, *[]uint32)) []uint32 {
	total := 0
	for p := range parts {
		n, _ := share(&parts[p])
		total += n
	}
	if total == 0 {
		return nil
	}
	list := make([]uint32, 0, total)
	for p := range parts {
		n, w := share(&parts[p])
		*w, list = window(list, n)
	}
	return list
}

// scatter numbers the partition's checks and writes them and its routes
// into its windows, in report order, a check once under each kind it
// carries.
func (pt *partition) scatter(s *Snapshot) {
	ci := pt.first
	var origin, owner asRun
	for ri := pt.lo; ri < pt.hi; ri++ {
		r := &s.routes[ri]
		r.off = ci
		if n := len(r.path); n > 0 {
			o := origin.at(&pt.ases, r.path[n-1])
			o.Routes = append(o.Routes, uint32(ri))
		}
		for i := range r.checks {
			c := &r.checks[i]
			e := owner.at(&pt.ases, report.Owner(c.Dir, c.From, c.To))
			e.Checks = append(e.Checks, ci)
			pt.byStatus[c.Status] = append(pt.byStatus[c.Status], ci)
			for kinds := c.ReasonKinds(); kinds != 0; kinds &= kinds - 1 {
				k := bits.TrailingZeros32(kinds)
				pt.byReason[k] = append(pt.byReason[k], ci)
			}
			s.checkRoute[ci] = uint32(ri)
			ci++
		}
	}
}

// asCursor finds a partition's AS entries through a direct-mapped memo
// of its last answers: along a path the AS that imported a route is the
// next one to export it, and most checks belong to the few ASes most
// paths cross.
type asCursor struct {
	perAS map[ir.ASN]*ASEntry
	memo  [1024]struct {
		asn ir.ASN
		e   *ASEntry
	}
}

// at returns the entry of asn, which it makes if there is none.
func (c *asCursor) at(asn ir.ASN) *ASEntry {
	m := &c.memo[uint32(asn)%uint32(len(c.memo))]
	if m.e != nil && m.asn == asn {
		return m.e
	}
	e := c.perAS[asn]
	if e == nil {
		e = &ASEntry{}
		c.perAS[asn] = e
	}
	m.asn, m.e = asn, e
	return e
}

// asRun remembers the entry it found last: a partition's routes come in
// runs of one origin, and along a path the AS that imported a route is
// the next one to export it, so its checks come in runs of one owner.
type asRun struct {
	asn ir.ASN
	e   *ASEntry
}

// at returns the entry of asn, looking it up in c on a change of AS.
func (r *asRun) at(c *asCursor, asn ir.ASN) *ASEntry {
	if r.e == nil || r.asn != asn {
		r.asn, r.e = asn, c.at(asn)
	}
	return r.e
}
