package reportstore

import (
	"runtime"
	"slices"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/report"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/verify"
)

// ASEntry.statuses holds one bit per status, ASEntry.reasons one bit
// per reason kind.
var (
	_ [8 - report.NumStatuses]struct{}
	_ [32 - verify.NumReasons]struct{}
)

// BuildSnapshot freezes a report slice. The snapshot keeps a copy of
// the report headers and reads their checks and reason lists where they
// are, so the caller must not write those afterwards. The verifier never
// does: Reverify replaces a report wholesale, in fresh memory, and the
// snapshot does not see the slice it patches.
//
// Every index is built in two passes over GOMAXPROCS contiguous route
// ranges. The count pass copies its range's headers and counts, per
// partition and writing nothing shared, what every index will hold; a
// serial merge allocates each index at its exact size and gives every
// partition its offsets into it; the scatter pass fills the indexes at
// those offsets. Partitions follow report order, so every list does too.
func BuildSnapshot(reports []verify.RouteReport) *Snapshot {
	start := time.Now()
	s := &Snapshot{routes: make([]route, len(reports))}
	parts := make([]partition, max(1, min(runtime.GOMAXPROCS(0), len(reports))))
	for p := range parts {
		parts[p].lo, parts[p].hi = p*len(reports)/len(parts), (p+1)*len(reports)/len(parts)
	}
	shard.Each(parts, func(pt *partition) { pt.count(s, reports) })
	s.merge(parts)
	shard.Each(parts, func(pt *partition) { pt.scatter(s) })
	s.builtAt = time.Now()
	s.buildTook = s.builtAt.Sub(start)
	return s
}

// partition is the routes [lo, hi) and what the count pass found there.
// Its AS entries are its own: their counts are its share of each AS,
// and after the merge their Checks and Routes are the windows of the
// AS's lists that its scatter pass fills, as byStatus and byReason are
// of those indexes' check lists.
type partition struct {
	lo, hi int
	ases   asCursor
	pairs  pairSet

	sum             Summary
	checks, origins int
	statusChecks    [report.NumStatuses]int
	reasonChecks    [verify.NumReasons]int

	first    uint32 // the number of the range's first check
	byStatus [report.NumStatuses][]uint32
	byReason [verify.NumReasons][]uint32
}

// count copies the partition's report headers into s and counts them.
func (pt *partition) count(s *Snapshot, reports []verify.RouteReport) {
	pt.ases.perAS = make(map[ir.ASN]*ASEntry)
	pt.pairs.m = make(map[report.PairKey]struct{})
	for ri := pt.lo; ri < pt.hi; ri++ {
		rep, r := &reports[ri], &s.routes[ri]
		r.prefix, r.path, r.ignored = rep.Route.Prefix, rep.Route.Path, rep.Ignored
		// The route is indexed under its origin (last AS on the path) so
		// /v1/as/{asn}/routes answers "what does this AS originate".
		if n := len(r.path); n > 0 {
			pt.ases.at(r.path[n-1]).nRoutes++
			pt.origins++
		}
		if rep.Ignored != "" {
			// An ignored route has no checks, even where an imported
			// report carries some.
			switch rep.Ignored {
			case "as-set":
				pt.sum.IgnoredASSet++
			case "single-as":
				pt.sum.IgnoredSingleAS++
			}
			continue
		}
		r.checks = rep.Checks
		pt.sum.Routes++
		pt.checks += len(r.checks)
		for i := range r.checks {
			c := &r.checks[i]
			e := pt.ases.at(owner(c.Dir, c.From, c.To))
			e.nChecks++
			e.statuses |= 1 << c.Status
			e.Stats.Add(c)
			pt.sum.Checks.Add(c.Status)
			if i < 2 { // the checks run from the origin side
				pt.sum.FirstHop.Add(c.Status)
			}
			pt.statusChecks[c.Status]++
			// A check is listed under a kind once per reason of that
			// kind, not once per kind: /v1/reports?reason= pages over these.
			for j := range c.Reasons {
				e.reasons |= 1 << c.Reasons[j].Kind
				pt.reasonChecks[c.Reasons[j].Kind]++
			}
			pt.pairs.add(c.From, c.To)
		}
	}
}

// merge sums the partitions' counts into the snapshot's entries and
// summary, lays every index out at its exact size and gives each
// partition its windows, and builds the AS lists, which need only the
// entries' masks.
func (s *Snapshot) merge(parts []partition) {
	s.perAS = make(map[ir.ASN]*ASEntry)
	checks, origins := 0, 0
	pairs := parts[0].pairs.m
	for p := range parts {
		pt := &parts[p]
		pt.first = uint32(checks)
		checks += pt.checks
		origins += pt.origins
		for asn, t := range pt.ases.perAS {
			e := s.perAS[asn]
			if e == nil {
				e = &ASEntry{}
				s.perAS[asn] = e
			}
			e.nChecks += t.nChecks
			e.nRoutes += t.nRoutes
			e.statuses |= t.statuses
			e.reasons |= t.reasons
			if t.nChecks > 0 {
				if e.Stats == nil {
					e.Stats = &report.ASStats{ASN: asn}
					s.summary.ASes++
				}
				e.Stats.Merge(t.Stats)
			}
		}
		s.summary.Routes += pt.sum.Routes
		s.summary.IgnoredASSet += pt.sum.IgnoredASSet
		s.summary.IgnoredSingleAS += pt.sum.IgnoredSingleAS
		s.summary.Checks.Merge(&pt.sum.Checks)
		s.summary.FirstHop.Merge(&pt.sum.FirstHop)
		if p > 0 {
			for k := range pt.pairs.m {
				pairs[k] = struct{}{}
			}
		}
	}
	s.summary.Pairs = len(pairs)
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
			return pt.statusChecks[st], &pt.byStatus[st]
		})
	}
	for k := range s.byReason {
		s.byReason[k].Checks = split(parts, func(pt *partition) (int, *[]uint32) {
			return pt.reasonChecks[k], &pt.byReason[k]
		})
	}

	s.asns = make([]ir.ASN, 0, len(s.perAS))
	for asn := range s.perAS {
		s.asns = append(s.asns, asn)
	}
	slices.Sort(s.asns)
	// One walk in ASN order leaves every AS list sorted.
	for _, asn := range s.asns {
		e := s.perAS[asn]
		for st := range s.byStatus {
			if e.statuses&(1<<st) != 0 {
				s.byStatus[st].ASes = append(s.byStatus[st].ASes, asn)
			}
		}
		var causes report.CauseSet
		for k := range s.byReason {
			if e.reasons&(1<<k) == 0 {
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

// scatter numbers the partition's checks and writes them into its
// windows, in report order.
func (pt *partition) scatter(s *Snapshot) {
	ci := pt.first
	for ri := pt.lo; ri < pt.hi; ri++ {
		r := &s.routes[ri]
		r.off = ci
		if n := len(r.path); n > 0 {
			e := pt.ases.at(r.path[n-1])
			e.Routes = append(e.Routes, uint32(ri))
		}
		for i := range r.checks {
			c := &r.checks[i]
			s.checkRoute[ci] = uint32(ri)
			e := pt.ases.at(owner(c.Dir, c.From, c.To))
			e.Checks = append(e.Checks, ci)
			pt.byStatus[c.Status] = append(pt.byStatus[c.Status], ci)
			for j := range c.Reasons {
				k := c.Reasons[j].Kind
				pt.byReason[k] = append(pt.byReason[k], ci)
			}
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
	m := &c.memo[int(asn)%len(c.memo)]
	if m.e != nil && m.asn == asn {
		return m.e
	}
	e := c.perAS[asn]
	if e == nil {
		e = &ASEntry{Stats: &report.ASStats{ASN: asn}}
		c.perAS[asn] = e
	}
	m.asn, m.e = asn, e
	return e
}

// pairSet collects the distinct (From, To) pairs of a partition's
// checks through a direct-mapped memo of the pairs it saw last: a pair's
// export and import checks are adjacent, and the pairs near the origins
// of popular prefixes recur on path after path.
type pairSet struct {
	m    map[report.PairKey]struct{}
	memo [4096]struct {
		k  report.PairKey
		ok bool
	}
}

func (ps *pairSet) add(from, to ir.ASN) {
	k := report.PairKey{From: from, To: to}
	m := &ps.memo[((uint32(from)*0x9E3779B1^uint32(to))*0x85EBCA6B)>>20]
	if m.ok && m.k == k {
		return
	}
	ps.m[k] = struct{}{}
	m.k, m.ok = k, true
}
