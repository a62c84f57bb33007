// Package reportstore is the serving-side home of verification
// results: an indexed, immutable snapshot of every per-import/export
// check produced by verify.VerifyAll or an Incremental engine, plus the
// hot-swappable Store the HTTP API reads from.
//
// A Snapshot is frozen from a report slice (BuildSnapshot) and published
// via Store.Swap behind an atomic pointer — the same zero-downtime
// contract as the whois server's database hot-swap: every API request
// loads the pointer once and answers entirely from that snapshot, so
// in-flight requests finish on the generation they started with while
// a mirror-driven rebuild publishes the next one.
//
// The snapshot copies no check: it keeps the report headers and reads
// checks and reason lists from the verifier's own memory, which nothing
// writes once it is handed out. A check is numbered by its position in
// the reports, route by route, and every inverted index (status→checks/
// ASes, reason kind→checks/ASes, cause→ASes) is a sorted slice of those
// numbers built once at freeze time.
package reportstore

import (
	"sync/atomic"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// CheckRec is one verification check as the snapshot serves it.
type CheckRec struct {
	// Route indexes the snapshot's routes.
	Route    uint32
	From, To ir.ASN
	Dir      ir.Direction
	Status   verify.Status
	// Reasons is the verifier's own list, shared with every check that
	// has the same reasons: read it, never write it.
	Reasons []verify.Reason
}

// Owner returns the AS whose rule the check exercised (report.Owner).
func (c CheckRec) Owner() ir.ASN { return report.Owner(c.Dir, c.From, c.To) }

// RouteRec is one verified (or ignored) route. Its checks are the
// numbers [CheckOff, CheckOff+CheckLen).
type RouteRec struct {
	Prefix   prefix.Prefix
	Path     []ir.ASN
	Ignored  string
	CheckOff uint32
	CheckLen uint32
}

// route is what the snapshot keeps of one report: its checks are the
// report's, none when it is ignored, and the first is numbered off.
type route struct {
	prefix  prefix.Prefix
	path    []ir.ASN
	ignored string
	checks  []verify.Check
	off     uint32
}

// ASEntry indexes one AS: the checks attributed to it, the routes it
// originates, and its aggregate stats (nil for ASes that only appear
// as route origins, never as rule owners).
type ASEntry struct {
	Stats  *report.ASStats
	Checks []uint32
	Routes []uint32

	// nChecks and nRoutes count Checks and Routes.
	nChecks, nRoutes int
}

// Index is one inverted-index bucket: the matching checks (in report
// order) and the distinct owner ASes (sorted).
type Index struct {
	Checks []uint32
	ASes   []ir.ASN
}

// Summary is what /v1/summary serves: the counts of report.Aggregator
// over the same reports.
type Summary struct {
	// Routes counts verified routes; IgnoredASSet and IgnoredSingleAS
	// the excluded ones.
	Routes, IgnoredASSet, IgnoredSingleAS int64
	// ASes counts the ASes checks are attributed to, Pairs the distinct
	// directed (From, To) pairs checked.
	ASes, Pairs int
	// Checks counts every check by status, FirstHop the first two
	// checks of each route (the origin-side pair).
	Checks, FirstHop report.StatusCounts
}

// Snapshot is a frozen, fully indexed view of one verification run.
// All methods are safe for concurrent use: nothing mutates after
// BuildSnapshot returns.
type Snapshot struct {
	serial    uint64
	builtAt   time.Time
	buildTook time.Duration

	routes     []route
	checkRoute []uint32 // the route of each check

	perAS map[ir.ASN]*ASEntry
	asns  []ir.ASN

	byStatus [report.NumStatuses]Index
	byReason [verify.NumReasons]Index
	byCause  [report.NumCauses][]ir.ASN

	summary Summary
}

// Serial is the store generation this snapshot was published as (0
// before Store.Swap).
func (s *Snapshot) Serial() uint64 { return s.serial }

// BuiltAt is when the snapshot was frozen.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// NumRoutes returns the number of routes (including ignored ones).
func (s *Snapshot) NumRoutes() int { return len(s.routes) }

// NumChecks returns the number of checks.
func (s *Snapshot) NumChecks() int { return len(s.checkRoute) }

// Route returns one route record.
func (s *Snapshot) Route(i uint32) RouteRec {
	r := &s.routes[i]
	return RouteRec{Prefix: r.prefix, Path: r.path, Ignored: r.ignored, CheckOff: r.off, CheckLen: uint32(len(r.checks))}
}

// Check returns one check record.
func (s *Snapshot) Check(i uint32) CheckRec {
	ri := s.checkRoute[i]
	r := &s.routes[ri]
	c := &r.checks[i-r.off]
	return CheckRec{Route: ri, From: c.From, To: c.To, Dir: c.Dir, Status: c.Status, Reasons: c.Reasons}
}

// ASNs returns every indexed AS, sorted ascending. Callers must not
// mutate the returned slice.
func (s *Snapshot) ASNs() []ir.ASN { return s.asns }

// AS returns the entry for one AS.
func (s *Snapshot) AS(asn ir.ASN) (*ASEntry, bool) {
	e, ok := s.perAS[asn]
	return e, ok
}

// ByStatus returns the inverted index for one status.
func (s *Snapshot) ByStatus(st verify.Status) Index { return s.byStatus[st] }

// ByReason returns the inverted index for one reason kind.
func (s *Snapshot) ByReason(k verify.ReasonKind) Index { return s.byReason[k] }

// ByCause returns the ASes exhibiting one Figure 5/6 cause, sorted.
func (s *Snapshot) ByCause(c report.Cause) []ir.ASN { return s.byCause[c] }

// Summary returns the snapshot's aggregate counts.
func (s *Snapshot) Summary() Summary { return s.summary }

// Store publishes snapshots to concurrent readers with atomic swap
// semantics. The zero value is not ready; use New.
type Store struct {
	cur   atomic.Pointer[Snapshot]
	swaps atomic.Uint64

	m *Metrics
}

// New creates an empty store (Current returns nil until the first
// Swap). Metrics may be nil.
func New(m *Metrics) *Store { return &Store{m: m} }

// Current returns the snapshot requests should be answered from, or
// nil before the first Swap.
func (s *Store) Current() *Snapshot { return s.cur.Load() }

// Swap stamps the snapshot with the next generation serial and
// publishes it, returning the serial. In-flight readers keep the
// snapshot they loaded. A nil snapshot is ignored (returns the current
// swap count). How long the snapshot took to freeze is observed here,
// so BuildSeconds has one sample per swap.
func (s *Store) Swap(snap *Snapshot) uint64 {
	if snap == nil {
		return s.swaps.Load()
	}
	serial := s.swaps.Add(1)
	snap.serial = serial
	s.cur.Store(snap)
	if s.m != nil {
		s.m.Swaps.Inc()
		s.m.BuildSeconds.Observe(snap.buildTook.Seconds())
		s.m.Routes.Set(int64(snap.NumRoutes()))
		s.m.Checks.Set(int64(snap.NumChecks()))
		s.m.ASes.Set(int64(len(snap.asns)))
	}
	return serial
}

// Swaps returns how many snapshots have been published.
func (s *Store) Swaps() uint64 { return s.swaps.Load() }

// Metrics mirrors store state into a telemetry registry.
type Metrics struct {
	Swaps                *telemetry.Counter
	Routes, Checks, ASes *telemetry.Gauge
	BuildSeconds         *telemetry.Histogram
}

// NewMetrics registers the store instruments on reg (idempotent).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Swaps:        reg.Counter("rpslyzer_report_store_swaps_total", "Report-store snapshots published (hot swaps)."),
		Routes:       reg.Gauge("rpslyzer_report_store_routes", "Routes in the served snapshot."),
		Checks:       reg.Gauge("rpslyzer_report_store_checks", "Checks in the served snapshot."),
		ASes:         reg.Gauge("rpslyzer_report_store_ases", "Distinct ASes indexed in the served snapshot."),
		BuildSeconds: reg.Histogram("rpslyzer_report_store_build_seconds", "Freeze latency of each published snapshot: BuildSnapshot start to finish; verification is not in it.", nil),
	}
}
