// Package reportstore is the serving-side home of verification
// results: an indexed, immutable snapshot of every per-import/export
// check produced by verify.VerifyAll / VerifyStream, plus the
// hot-swappable Store the HTTP API reads from.
//
// A Snapshot is append-built (Builder), then frozen and published via
// Store.Swap behind an atomic pointer — the same zero-downtime
// contract as the whois server's database hot-swap: every API request
// loads the pointer once and answers entirely from that snapshot, so
// in-flight requests finish on the generation they started with while
// a mirror-driven rebuild publishes the next one.
//
// Layout follows the offset-arena idiom of the evaluation core rather
// than per-check allocations: checks and their reasons live in two
// flat slices addressed by (offset, length) pairs, the reason arena
// holds one copy per distinct reason list (checks with the same
// reasons point at the same range), reason names are symbols into one
// string table so the thousands of repeated set names cost one string
// each, and every inverted index (status→checks/ASes, reason
// kind→checks/ASes, cause→ASes) is a sorted slice built once at freeze
// time.
package reportstore

import (
	"sync/atomic"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/symtab"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// ReasonRef is the arena form of one verify.Reason: the name is a
// symbol into the snapshot's name table instead of a string.
type ReasonRef struct {
	Kind verify.ReasonKind
	ASN  ir.ASN
	Name symtab.ID
}

// CheckRec is the arena form of one verification check. Reasons live
// in the snapshot's reason arena at [ReasonOff, ReasonOff+ReasonLen),
// a range any number of checks with the same reason list share.
type CheckRec struct {
	// Route indexes the snapshot's route arena.
	Route     uint32
	From, To  ir.ASN
	Dir       ir.Direction
	Status    verify.Status
	ReasonOff uint32
	ReasonLen uint32
}

// Owner returns the AS whose rule the check exercised (the AS the
// check is attributed to, matching report.Aggregator).
func (c CheckRec) Owner() ir.ASN {
	if c.Dir == ir.DirExport {
		return c.From
	}
	return c.To
}

// RouteRec is one verified (or ignored) route. Its checks are the
// contiguous arena range [CheckOff, CheckOff+CheckLen).
type RouteRec struct {
	Prefix   prefix.Prefix
	Path     []ir.ASN
	Ignored  string
	CheckOff uint32
	CheckLen uint32
}

// ASEntry indexes one AS: the checks attributed to it, the routes it
// originates, and its aggregate stats (nil for ASes that only appear
// as route origins, never as rule owners).
type ASEntry struct {
	Stats  *report.ASStats
	Checks []uint32
	Routes []uint32

	// statuses and reasons have one bit per status and reason kind
	// among the AS's checks; Build expands them into the AS lists of
	// the inverted indexes; nChecks and nRoutes count Checks and Routes.
	statuses         uint8
	reasons          uint32
	nChecks, nRoutes uint32
}

// Index is one inverted-index bucket: the matching checks (in arena
// order) and the distinct owner ASes (sorted).
type Index struct {
	Checks []uint32
	ASes   []ir.ASN
}

// Snapshot is a frozen, fully indexed view of one verification run.
// All methods are safe for concurrent use: nothing mutates after
// Builder.Build returns.
type Snapshot struct {
	serial    uint64
	builtAt   time.Time
	buildTook time.Duration

	routes  []RouteRec
	checks  []CheckRec
	reasons []ReasonRef
	names   []string // indexed by ReasonRef.Name

	perAS map[ir.ASN]*ASEntry
	asns  []ir.ASN

	byStatus [report.NumStatuses]Index
	byReason [verify.NumReasons]Index
	byCause  [report.NumCauses][]ir.ASN

	agg *report.Aggregator
}

// Serial is the store generation this snapshot was published as (0
// before Store.Swap).
func (s *Snapshot) Serial() uint64 { return s.serial }

// BuiltAt is when the snapshot was frozen.
func (s *Snapshot) BuiltAt() time.Time { return s.builtAt }

// NumRoutes returns the number of routes (including ignored ones).
func (s *Snapshot) NumRoutes() int { return len(s.routes) }

// NumChecks returns the number of checks.
func (s *Snapshot) NumChecks() int { return len(s.checks) }

// Route returns one route record.
func (s *Snapshot) Route(i uint32) RouteRec { return s.routes[i] }

// Check returns one check record.
func (s *Snapshot) Check(i uint32) CheckRec { return s.checks[i] }

// CheckReasons materializes a check's reasons back into verify form.
func (s *Snapshot) CheckReasons(c CheckRec) []verify.Reason {
	if c.ReasonLen == 0 {
		return nil
	}
	out := make([]verify.Reason, c.ReasonLen)
	for i, ref := range s.reasons[c.ReasonOff : c.ReasonOff+c.ReasonLen] {
		out[i] = verify.Reason{Kind: ref.Kind, ASN: ref.ASN, Name: s.names[ref.Name]}
	}
	return out
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

// Aggregator exposes the aggregate statistics accumulated alongside
// the arenas (the summary endpoint's data source). Read-only.
func (s *Snapshot) Aggregator() *report.Aggregator { return s.agg }

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
// swap count), mirroring whois.Server.SetDB. How long the snapshot took
// to freeze is observed here, so BuildSeconds has one sample per swap
// whichever way the snapshot was built.
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
		BuildSeconds: reg.Histogram("rpslyzer_report_store_build_seconds", "Freeze latency of each published snapshot: BuildSnapshot start to finish, or Build alone behind a streaming Builder; verification is not in it.", nil),
	}
}
