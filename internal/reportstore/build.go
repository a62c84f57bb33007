package reportstore

import (
	"hash/maphash"
	"slices"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/report"
	"rpslyzer/internal/symtab"
	"rpslyzer/internal/verify"
)

// ASEntry.statuses holds one bit per status; ASEntry.reasons and
// reasonList.kinds one bit per reason kind.
var (
	_ [8 - report.NumStatuses]struct{}
	_ [32 - verify.NumReasons]struct{}
)

// Builder accumulates route reports into the arenas and indexes of a
// Snapshot. Add is not safe for concurrent use — feed it as the
// (serialized) sink of verify.VerifyStream, or loop over VerifyAll
// output. Build freezes and returns the snapshot; the builder must not
// be reused afterwards.
type Builder struct {
	snap *Snapshot

	// lists are the distinct reason lists in the reason arena and
	// byHash finds one by the hash of its content, so a check whose
	// list was seen before points at that copy instead of appending
	// its own; nameIDs interns the names of the lists that do get
	// appended. byAddr, BuildSnapshot's only, finds one by its address.
	seed    maphash.Seed
	lists   []reasonList
	byHash  map[uint64]uint32
	byAddr  map[*verify.Reason]uint32
	nameIDs map[string]symtab.ID

	// statusChecks counts checks per status and origins the routes that
	// have one; with reasonList.uses and the per-AS counts they give
	// Build the exact length of every index. fill finds the AS entries.
	statusChecks [report.NumStatuses]int
	origins      int
	fill         asCursor

	// start is when the freeze began and side, when non-nil, closes once
	// the goroutine beside the fill has aggregated every report and filled
	// the per-AS lists: BuildSnapshot sets both, a streaming caller neither.
	start time.Time
	side  chan struct{}
}

// reasonList is one distinct reason list in the reason arena.
type reasonList struct {
	off, n uint32
	kinds  uint32 // bit k set: the list holds a reason of kind k
	uses   uint32 // checks pointing at the list
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder {
	perAS := make(map[ir.ASN]*ASEntry)
	return &Builder{
		snap: &Snapshot{
			// Symbol 0 is the empty name, so zero-valued ReasonRefs
			// round-trip to reasons without a name.
			names: []string{""},
			perAS: perAS,
			agg:   report.NewAggregator(),
		},
		seed:    maphash.MakeSeed(),
		byHash:  make(map[uint64]uint32),
		nameIDs: map[string]symtab.ID{"": 0},
		fill:    asCursor{perAS: perAS},
	}
}

// asCursor finds AS entries through a direct-mapped memo of its last
// answers: along a path the AS that imported a route is the next one to
// export it, and most checks belong to the few ASes most paths cross.
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
		e = &ASEntry{}
		c.perAS[asn] = e
	}
	m.asn, m.e = asn, e
	return e
}

// Add ingests one route report.
func (b *Builder) Add(rep verify.RouteReport) {
	b.snap.agg.Add(rep)
	b.add(&rep)
}

// add is the fill kernel behind both Add and BuildSnapshot: it appends
// one report to the arenas, counts it into the per-AS entries and leaves
// the aggregator to its caller and every index to Build. The arenas it
// appends to simply grow unless BuildSnapshot sized them first.
func (b *Builder) add(rep *verify.RouteReport) {
	s := b.snap
	routeIdx := uint32(len(s.routes))
	rec := RouteRec{
		Prefix:  rep.Route.Prefix,
		Path:    rep.Route.Path,
		Ignored: rep.Ignored,
	}
	// An ignored route contributes no checks to the arena, so its range
	// must stay empty even if an imported report carries both fields —
	// a non-zero CheckLen here would alias other routes' checks.
	if rep.Ignored == "" {
		rec.CheckOff = uint32(len(s.checks))
		rec.CheckLen = uint32(len(rep.Checks))
	}
	s.routes = append(s.routes, rec)
	// The route is indexed under its origin (last AS on the path) so
	// /v1/as/{asn}/routes answers "what does this AS originate".
	if n := len(rep.Route.Path); n > 0 {
		b.fill.at(rep.Route.Path[n-1]).nRoutes++
		b.origins++
	}
	if rep.Ignored != "" {
		return
	}

	for i := range rep.Checks {
		c := &rep.Checks[i]
		cr := CheckRec{
			Route:  routeIdx,
			From:   c.From,
			To:     c.To,
			Dir:    c.Dir,
			Status: c.Status,
		}
		e := b.fill.at(cr.Owner())
		e.nChecks++
		e.statuses |= 1 << c.Status
		b.statusChecks[c.Status]++
		if len(c.Reasons) > 0 {
			l := b.list(c.Reasons)
			l.uses++
			cr.ReasonOff, cr.ReasonLen = l.off, l.n
			e.reasons |= l.kinds
		}
		s.checks = append(s.checks, cr)
	}
}

// list returns the arena copy of rs; the pointer is good until the next
// call. Under BuildSnapshot no report changes while the builder reads,
// so a backing array seen before at this length is the list it was then:
// the address is a hint in front of share, which decides the lists the
// hint does not know (a mirror's patches, a sub-slice of a longer list).
func (b *Builder) list(rs []verify.Reason) *reasonList {
	if i, ok := b.byAddr[&rs[0]]; ok && int(b.lists[i].n) == len(rs) {
		return &b.lists[i]
	}
	return b.share(b.hashReasons(rs), rs)
}

// hashReasons hashes a reason list over (kind, ASN, name) in order.
func (b *Builder) hashReasons(rs []verify.Reason) uint64 {
	return verify.HashReasons(b.seed, uint64(len(rs)), rs)
}

// share returns the arena copy of rs: the list already stored under
// hash h if its content is rs's, else a copy appended now. The compare
// makes the hash a hint only: a collision costs one more copy and never
// a wrong reason. It reads the arena's copy, not the report the list
// first came in, so a streaming caller may reuse that report's memory.
func (b *Builder) share(h uint64, rs []verify.Reason) *reasonList {
	s := b.snap
	i, ok := b.byHash[h]
	if !ok || !b.holds(b.lists[i], rs) {
		l := reasonList{off: uint32(len(s.reasons)), n: uint32(len(rs))}
		for j := range rs {
			r := &rs[j]
			id, ok := b.nameIDs[r.Name]
			if !ok {
				id = symtab.ID(len(s.names))
				s.names = append(s.names, r.Name)
				b.nameIDs[r.Name] = id
			}
			s.reasons = append(s.reasons, ReasonRef{Kind: r.Kind, ASN: r.ASN, Name: id})
			l.kinds |= 1 << r.Kind
		}
		i = uint32(len(b.lists))
		b.byHash[h] = i
		b.lists = append(b.lists, l)
	}
	if b.byAddr != nil {
		b.byAddr[&rs[0]] = i
	}
	return &b.lists[i]
}

// holds reports whether the arena list l is rs, reason for reason.
func (b *Builder) holds(l reasonList, rs []verify.Reason) bool {
	if int(l.n) != len(rs) {
		return false
	}
	s := b.snap
	for i, ref := range s.reasons[l.off : l.off+l.n] {
		r := &rs[i]
		if ref.Kind != r.Kind || ref.ASN != r.ASN || s.names[ref.Name] != r.Name {
			return false
		}
	}
	return true
}

// Build freezes the snapshot: every check and route index is filled at
// its exact length from the arenas, aggregate stats are attached to
// their AS entries, the per-AS status and reason masks are expanded
// into the sorted AS lists, and the result is immutable from here on
// (ready for Store.Swap).
func (b *Builder) Build() *Snapshot {
	if b.start.IsZero() {
		b.start = time.Now()
	}
	s := b.snap
	b.snap = nil
	if b.side == nil {
		s.indexASes(b.origins)
	}

	// A check is listed under a kind once per reason of that kind, not
	// once per kind: /v1/reports?reason= pages over these lists.
	var reasonChecks [verify.NumReasons]int
	for _, l := range b.lists {
		for _, ref := range s.reasons[l.off : l.off+l.n] {
			reasonChecks[ref.Kind] += int(l.uses)
		}
	}
	for st, n := range b.statusChecks {
		if n > 0 {
			s.byStatus[st].Checks = make([]uint32, 0, n)
		}
	}
	for k, n := range reasonChecks {
		if n > 0 {
			s.byReason[k].Checks = make([]uint32, 0, n)
		}
	}
	for i := range s.checks {
		c := &s.checks[i]
		s.byStatus[c.Status].Checks = append(s.byStatus[c.Status].Checks, uint32(i))
		for _, ref := range s.reasons[c.ReasonOff : c.ReasonOff+c.ReasonLen] {
			s.byReason[ref.Kind].Checks = append(s.byReason[ref.Kind].Checks, uint32(i))
		}
	}

	if b.side != nil {
		<-b.side
	}
	for _, st := range s.agg.PerAS() {
		e := s.perAS[st.ASN]
		if e == nil {
			// Cannot happen — every aggregated AS owned a check — but
			// degrade to an empty entry rather than panic.
			e = &ASEntry{}
			s.perAS[st.ASN] = e
		}
		e.Stats = st
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

	s.builtAt = time.Now()
	s.buildTook = s.builtAt.Sub(b.start)
	return s
}

// indexASes lays the per-AS check and route lists out as exact-size
// ranges of one array each, sized by what add counted, and fills them
// in one forward walk of the arenas. It makes no entry, so it may run
// beside readers of the AS map.
func (s *Snapshot) indexASes(origins int) {
	checks, routes := make([]uint32, len(s.checks)), make([]uint32, origins)
	for _, e := range s.perAS {
		e.Checks, checks = checks[:0:e.nChecks], checks[e.nChecks:]
		e.Routes, routes = routes[:0:e.nRoutes], routes[e.nRoutes:]
	}
	cur := asCursor{perAS: s.perAS}
	for ri := range s.routes {
		r := &s.routes[ri]
		if n := len(r.Path); n > 0 {
			e := cur.at(r.Path[n-1])
			e.Routes = append(e.Routes, uint32(ri))
		}
		for ci := r.CheckOff; ci < r.CheckOff+r.CheckLen; ci++ {
			e := cur.at(s.checks[ci].Owner())
			e.Checks = append(e.Checks, ci)
		}
	}
}

// BuildSnapshot freezes a full report slice. It is Builder with the
// route and check arenas sized up front, reason lists known by address
// before content, and one goroutine beside the fill, which aggregates
// (it too only reads the reports) and then fills the per-AS lists.
func BuildSnapshot(reports []verify.RouteReport) *Snapshot {
	b := NewBuilder()
	b.start = time.Now()

	checks := 0
	for i := range reports {
		if reports[i].Ignored == "" {
			checks += len(reports[i].Checks)
		}
	}
	s := b.snap
	s.routes = make([]RouteRec, 0, len(reports))
	s.checks = make([]CheckRec, 0, checks)
	b.byAddr = make(map[*verify.Reason]uint32)

	filled := make(chan struct{})
	b.side = make(chan struct{})
	go func() {
		defer close(b.side)
		for i := range reports {
			s.agg.Add(reports[i])
		}
		<-filled
		s.indexASes(b.origins)
	}()
	for i := range reports {
		b.add(&reports[i])
	}
	close(filled)
	return b.Build()
}
