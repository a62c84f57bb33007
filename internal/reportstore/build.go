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
	// appended.
	seed    maphash.Seed
	lists   []reasonList
	byHash  map[uint64]uint32
	nameIDs map[string]symtab.ID

	// statusChecks counts checks per status; with reasonList.uses it
	// gives Build the exact length of every check index.
	statusChecks [report.NumStatuses]int

	// lastASN/last remember the previous asEntry answer: along a path
	// the AS that imported a route is the next one to export it.
	lastASN ir.ASN
	last    *ASEntry

	// start is when the freeze began and aggDone, when non-nil, closes
	// once the aggregator has seen every report: BuildSnapshot sets
	// both, a streaming caller neither.
	start   time.Time
	aggDone chan struct{}
}

// reasonList is one distinct reason list in the reason arena.
type reasonList struct {
	off, n uint32
	kinds  uint32 // bit k set: the list holds a reason of kind k
	uses   uint32 // checks pointing at the list
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		snap: &Snapshot{
			// Symbol 0 is the empty name, so zero-valued ReasonRefs
			// round-trip to reasons without a name.
			names: []string{""},
			perAS: make(map[ir.ASN]*ASEntry),
			agg:   report.NewAggregator(),
		},
		seed:    maphash.MakeSeed(),
		byHash:  make(map[uint64]uint32),
		nameIDs: map[string]symtab.ID{"": 0},
	}
}

func (b *Builder) asEntry(asn ir.ASN) *ASEntry {
	if b.last != nil && b.lastASN == asn {
		return b.last
	}
	e := b.snap.perAS[asn]
	if e == nil {
		e = &ASEntry{}
		b.snap.perAS[asn] = e
	}
	b.lastASN, b.last = asn, e
	return e
}

// Add ingests one route report.
func (b *Builder) Add(rep verify.RouteReport) {
	b.snap.agg.Add(rep)
	b.add(&rep)
}

// add is the fill kernel behind both Add and BuildSnapshot: it appends
// one report to the arenas and the per-AS entries and leaves the
// aggregator to its caller and the check indexes to Build. The slices
// it appends to simply grow unless BuildSnapshot sized them first.
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
	// Index the route under its origin (last AS on the path) so
	// /v1/as/{asn}/routes answers "what does this AS originate".
	if n := len(rep.Route.Path); n > 0 {
		e := b.asEntry(rep.Route.Path[n-1])
		e.Routes = append(e.Routes, routeIdx)
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
		e := b.asEntry(cr.Owner())
		e.Checks = append(e.Checks, uint32(len(s.checks)))
		e.statuses |= 1 << c.Status
		b.statusChecks[c.Status]++
		if len(c.Reasons) > 0 {
			l := b.share(b.hashReasons(c.Reasons), c.Reasons)
			l.uses++
			cr.ReasonOff, cr.ReasonLen = l.off, l.n
			e.reasons |= l.kinds
		}
		s.checks = append(s.checks, cr)
	}
}

// hashReasons hashes a reason list over (kind, ASN, name) in order.
func (b *Builder) hashReasons(rs []verify.Reason) uint64 {
	const mul = 0x9E3779B97F4A7C15
	h := uint64(len(rs))
	for i := range rs {
		r := &rs[i]
		h = (h ^ uint64(r.Kind) ^ uint64(r.ASN)<<8) * mul
		if r.Name != "" {
			h = (h ^ maphash.String(b.seed, r.Name)) * mul
		}
		h ^= h >> 32
	}
	return h
}

// share returns the arena copy of rs: the list already stored under
// hash h if its content is rs's, else a copy appended now. The compare
// makes the hash a hint only: a collision costs one more copy and never
// a wrong reason. It reads the arena's copy, not the report the list
// first came in, so a streaming caller may reuse that report's memory.
// The pointer is good until the next call.
func (b *Builder) share(h uint64, rs []verify.Reason) *reasonList {
	s := b.snap
	if i, ok := b.byHash[h]; ok && b.holds(b.lists[i], rs) {
		return &b.lists[i]
	}
	l := reasonList{off: uint32(len(s.reasons)), n: uint32(len(rs))}
	for i := range rs {
		r := &rs[i]
		id, ok := b.nameIDs[r.Name]
		if !ok {
			id = symtab.ID(len(s.names))
			s.names = append(s.names, r.Name)
			b.nameIDs[r.Name] = id
		}
		s.reasons = append(s.reasons, ReasonRef{Kind: r.Kind, ASN: r.ASN, Name: id})
		l.kinds |= 1 << r.Kind
	}
	b.byHash[h] = uint32(len(b.lists))
	b.lists = append(b.lists, l)
	return &b.lists[len(b.lists)-1]
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

// Build freezes the snapshot: aggregate stats are attached to their AS
// entries, the check indexes are filled at their exact lengths from
// the check arena, the per-AS status and reason masks are expanded
// into the sorted AS lists, and the result is immutable from here on
// (ready for Store.Swap).
func (b *Builder) Build() *Snapshot {
	if b.start.IsZero() {
		b.start = time.Now()
	}
	if b.aggDone != nil {
		<-b.aggDone
	}
	s := b.snap
	b.snap = nil

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

// BuildSnapshot freezes a full report slice. It is Builder with the
// route and check arenas sized up front and the aggregator, which like
// the fill only reads the reports, run beside it.
func BuildSnapshot(reports []verify.RouteReport) *Snapshot {
	b := NewBuilder()
	b.start = time.Now()

	checks := 0
	for i := range reports {
		if reports[i].Ignored == "" {
			checks += len(reports[i].Checks)
		}
	}
	b.snap.routes = make([]RouteRec, 0, len(reports))
	b.snap.checks = make([]CheckRec, 0, checks)

	b.aggDone = make(chan struct{})
	go func(agg *report.Aggregator) {
		defer close(b.aggDone)
		for i := range reports {
			agg.Add(reports[i])
		}
	}(b.snap.agg)
	for i := range reports {
		b.add(&reports[i])
	}
	return b.Build()
}
