// Package verify implements the paper's core contribution: verifying
// BGP routes against RPSL policies (Section 5). For every adjacent AS
// pair <Y, X> on an observed AS-path, where AS Y imports the route AS X
// exports, it checks X's export rules and Y's import rules against the
// route's prefix and AS-path, classifying each check as Verified, Skip,
// Unrecorded, Relaxed, Safelisted, or Unverified — applying the six
// special-case checks of Section 5.1 in the paper's order.
package verify

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"rpslyzer/internal/asregex"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/trace"
)

// Status is the verification status of one import or export check,
// ordered by the paper's classification ladder: when multiple rules
// match differently, the earliest status wins.
type Status uint8

const (
	// Verified is a strict match.
	Verified Status = iota
	// Skip marks rules RPSLyzer cannot or will not interpret
	// (community filters; optionally complex regexes).
	Skip
	// Unrecorded marks failures caused by information missing from the
	// IRR: no aut-num, no rules, zero-route filter ASes, unrecorded
	// sets.
	Unrecorded
	// Relaxed marks matches under the relaxed filter semantics of
	// Section 5.1.1 (export self, import customer, missing routes).
	Relaxed
	// Safelisted marks the safelisted relationships of Section 5.1.2
	// (only provider policies, Tier-1 pairs, uphill propagation).
	Safelisted
	// Unverified is a mismatch none of the above explains.
	Unverified
)

var statusNames = [...]string{"verified", "skip", "unrecorded", "relaxed", "safelisted", "unverified"}

// String renders the status.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return "invalid"
}

// MarshalText implements encoding.TextMarshaler.
func (s Status) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (s *Status) UnmarshalText(b []byte) error {
	for i, n := range statusNames {
		if n == string(b) {
			*s = Status(i)
			return nil
		}
	}
	return fmt.Errorf("verify: bad status %q", b)
}

// ReasonKind enumerates diagnostic report items, named after the
// paper's Appendix C printout.
type ReasonKind uint8

const (
	// MatchRemoteAsNum reports a rule whose peering names a different
	// remote AS.
	MatchRemoteAsNum ReasonKind = iota
	// MatchRemoteAsSet reports a rule whose peering as-set does not
	// contain the remote AS.
	MatchRemoteAsSet
	// MatchFilterAsNum reports a rule whose ASN filter did not cover
	// the prefix.
	MatchFilterAsNum
	// MatchFilter reports a generic filter mismatch.
	MatchFilter
	// UnrecordedAutNum: the AS has no aut-num object.
	UnrecordedAutNum
	// UnrecordedNoRules: the aut-num has zero rules in this direction.
	UnrecordedNoRules
	// UnrecordedZeroRouteAS: a filter references an AS that originates
	// no route objects.
	UnrecordedZeroRouteAS
	// UnrecordedAsSet / UnrecordedRouteSet / UnrecordedFilterSet /
	// UnrecordedPeeringSet: referenced set objects missing in the IRR.
	UnrecordedAsSet
	UnrecordedRouteSet
	UnrecordedFilterSet
	UnrecordedPeeringSet
	// SkipCommunityFilter / SkipUnsupported: rule skipped.
	SkipCommunityFilter
	SkipUnsupported
	// SpecExportSelf / SpecImportCustomer / SpecMissingRoutes: relaxed
	// filter matches (Section 5.1.1).
	SpecExportSelf
	SpecImportCustomer
	SpecMissingRoutes
	// SpecOnlyProviderPolicies / SpecTier1Pair / SpecUphill: safelisted
	// relationships (Section 5.1.2).
	SpecOnlyProviderPolicies
	SpecTier1Pair
	SpecUphill
)

// NumReasons is the number of reason kinds (for dense []T tables
// indexed by ReasonKind).
const NumReasons = int(SpecUphill) + 1

var reasonNames = [...]string{
	"MatchRemoteAsNum", "MatchRemoteAsSet", "MatchFilterAsNum", "MatchFilter",
	"UnrecordedAutNum", "UnrecordedNoRules", "UnrecordedZeroRouteAS",
	"UnrecordedAsSet", "UnrecordedRouteSet", "UnrecordedFilterSet", "UnrecordedPeeringSet",
	"SkipCommunityFilter", "SkipUnsupported",
	"SpecExportSelf", "SpecImportCustomer", "SpecMissingRoutes",
	"SpecOnlyProviderPolicies", "SpecTier1Pair", "SpecUphill",
}

// String renders the reason kind.
func (k ReasonKind) String() string {
	if int(k) < len(reasonNames) {
		return reasonNames[k]
	}
	return "Invalid"
}

// MarshalText implements encoding.TextMarshaler, so Reason serializes
// with the Appendix C name instead of an opaque number.
func (k ReasonKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *ReasonKind) UnmarshalText(b []byte) error {
	kind, ok := ParseReasonKind(string(b))
	if !ok {
		return fmt.Errorf("verify: bad reason kind %q", b)
	}
	*k = kind
	return nil
}

// ParseReasonKind resolves a reason-kind name (as printed by String).
func ParseReasonKind(name string) (ReasonKind, bool) {
	for i, n := range reasonNames {
		if n == name {
			return ReasonKind(i), true
		}
	}
	return 0, false
}

// Reason is one diagnostic item attached to a check.
type Reason struct {
	Kind ReasonKind `json:"kind"`
	ASN  ir.ASN     `json:"asn,omitempty"`
	Name string     `json:"name,omitempty"`
}

// String renders the reason like the paper's Appendix C items, e.g.
// "MatchRemoteAsNum(58552)" or `UnrecordedAsSet("AS1299:AS-PEERS")`.
func (r Reason) String() string {
	switch {
	case r.Name != "":
		return fmt.Sprintf("%s(%q)", r.Kind, r.Name)
	case r.ASN != 0 || r.Kind == MatchRemoteAsNum || r.Kind == MatchFilterAsNum || r.Kind == UnrecordedZeroRouteAS:
		return fmt.Sprintf("%s(%d)", r.Kind, uint32(r.ASN))
	default:
		return r.Kind.String()
	}
}

// Check is the verification result of one import or export check for
// one AS pair on one route.
type Check struct {
	// From exported the route; To imported it.
	From ir.ASN `json:"from"`
	To   ir.ASN `json:"to"`
	// Dir says whose rule was checked: DirExport checks From's export,
	// DirImport checks To's import.
	Dir     ir.Direction `json:"dir"`
	Status  Status       `json:"status"`
	Reasons []Reason     `json:"reasons,omitempty"`
}

// String renders the check in the Appendix C report style:
// "MehExport { from: 56239, to: 133840, items: [...] }".
func (c Check) String() string {
	var class string
	switch c.Status {
	case Verified:
		class = "Ok"
	case Skip:
		class = "Skip"
	case Unrecorded:
		class = "Unrec"
	case Relaxed, Safelisted:
		class = "Meh"
	case Unverified:
		class = "Bad"
	}
	dir := "Import"
	if c.Dir == ir.DirExport {
		dir = "Export"
	}
	if len(c.Reasons) == 0 {
		return fmt.Sprintf("%s%s { from: %d, to: %d }", class, dir, uint32(c.From), uint32(c.To))
	}
	items := make([]string, len(c.Reasons))
	for i, r := range c.Reasons {
		items[i] = r.String()
	}
	return fmt.Sprintf("%s%s { from: %d, to: %d, items: [%s] }",
		class, dir, uint32(c.From), uint32(c.To), strings.Join(items, ", "))
}

// Config tunes the verifier.
type Config struct {
	// Eval selects the evaluation engine. "compiled" (the default)
	// lowers each aut-num's rules once into flat predicate programs —
	// set references resolved to flattened tables, filter-sets
	// inlined, regexes compiled — and executes those; "interp" walks
	// the ir policy trees directly on every check. The interpreter is
	// the reference the differential tests hold the compiled engine to;
	// both produce identical reports.
	Eval string
	// SkipComplexRegex makes the verifier skip rules whose AS-path
	// regexes use ASN ranges or same-pattern operators, exactly
	// matching the paper's published behaviour (Appendix B leaves them
	// as future work). When false (the default), the symbolic engine
	// interprets them.
	SkipComplexRegex bool
	// InterpretCommunities evaluates community(...) filters against
	// the communities observed on the route instead of skipping the
	// rule. The paper deliberately skips such rules because
	// intermediate ASes may strip communities before the collector;
	// this optional mode exists to quantify that effect.
	InterpretCommunities bool
	// Strict disables the Section 5.1 special cases (relaxed filters
	// and safelisted relationships), applying only the RFC's strict
	// semantics. The special cases were designed to excuse common
	// benign misconfigurations — which also means they can whitewash
	// genuine route leaks (see examples/leakdetect); strict mode is
	// the filter-generation view of the data.
	Strict bool
	// Shards is the number of partitions the bulk drivers (VerifyAll,
	// VerifyStream) scatter routes into, by the same stable origin-AS
	// hash the sharded irr.Database uses; each partition runs on its
	// own goroutine with its own report arena, and reports gather back
	// in input order, byte-identical at any count. When unset (<= 0)
	// the drivers partition by their workers argument instead.
	Shards int
}

// maxFilterSetDepth bounds filter-set dereference chains.
const maxFilterSetDepth = 10

func (c *Config) fill() {
	if c.Eval == "" {
		c.Eval = "compiled"
	}
}

// Verifier verifies routes against a merged IRR database using an AS
// relationship database for the special cases. It is safe for
// concurrent use.
type Verifier struct {
	DB   *irr.Database
	Rels *asrel.Database
	cfg  Config

	// useInterp selects the tree-walking evaluator (Config.Eval).
	useInterp bool

	// d is everything the verifier derives from DB and caches; see
	// derived, resync and evict.
	d *derived

	// metrics, when non-nil, mirrors verification counters into a
	// telemetry registry (set with SetMetrics).
	metrics *Metrics

	// tracer, when non-nil, emits sampled route/compile trace spans
	// (set with SetTracer), one route in tracePeriod (0 without a
	// tracer); profiler, when non-nil, feeds heavy-hitter sketches (set
	// with SetProfiler).
	tracer      *trace.Tracer
	tracePeriod uint64
	profiler    *Profiler

	// graph, when non-nil, records each compiled program's dependency
	// keys so Incremental can invalidate programs selectively (set with
	// SetDepGraph).
	graph *depgraph.Graph

	// shardMetrics, when non-nil, records scatter-gather fan-out
	// latency (set with SetShardMetrics).
	shardMetrics *shard.Metrics
}

// derived is the state the verifier computes from one database
// snapshot and caches: every partition of a bulk run and every
// single-route call share it, and resync and evict are the only places
// it is invalidated. A resync replaces the whole value, so nothing
// keyed by the old snapshot's IR pointers can outlive that snapshot.
type derived struct {
	// programs memoizes compiled per-aut-num rule programs; progCount
	// tracks its size for the cache-size gauge.
	programs  sync.Map // *ir.AutNum -> *autnumProg
	progCount atomic.Int64

	// regexes memoizes compiled AS-path regexes.
	regexMu sync.RWMutex
	regexes map[*ir.PathRegex]*asregex.Regex

	// cones memoizes customer cones for the Export Self check. They
	// depend on Rels alone and ride along so that a resync has one
	// value to replace.
	coneMu sync.RWMutex
	cones  map[ir.ASN]map[ir.ASN]bool

	// onlyProviderPolicies holds the ASes whose rules only name their
	// providers (Section 5.1.2). It is read lock-free on the hot path.
	onlyProviderPolicies map[ir.ASN]bool
}

// newDerived builds the derived state for v.DB: the lazily filled
// caches start empty, the Only Provider Policies set is precomputed.
func (v *Verifier) newDerived() *derived {
	d := &derived{
		regexes:              make(map[*ir.PathRegex]*asregex.Regex),
		cones:                make(map[ir.ASN]map[ir.ASN]bool),
		onlyProviderPolicies: make(map[ir.ASN]bool),
	}
	for asn, an := range v.DB.IR.AutNums {
		if v.onlyProviderPolicy(asn, an) {
			d.onlyProviderPolicies[asn] = true
		}
	}
	return d
}

// resync moves the verifier to a database that shares nothing with the
// old one: the whole derived value is replaced and the dependency graph
// reset, so nothing keyed by the old snapshot's IR pointers survives.
// Callers must not race resync or evict with verification.
func (v *Verifier) resync(db *irr.Database) {
	v.DB = db
	v.d = v.newDerived()
	if v.graph != nil {
		v.graph.Reset()
	}
}

// evict moves the verifier to db, a journal step ahead of v.DB, and
// invalidates the aut-num-derived entries of asns — compiled program,
// dependency edges, Only Provider Policies flag — which are re-derived
// against db. Surviving programs read v.DB at call time, so they see
// the new snapshot for their run-time lookups.
//
// A program that was compiled is recompiled here, not when a dirty
// route next needs it: its AS may hold reports the step dirties none
// of, and those reports must keep current dependency edges or the next
// delta to an object they rest on is handed no dependent to mark.
func (v *Verifier) evict(db *irr.Database, asns []ir.ASN) {
	var compiled []ir.ASN
	for _, asn := range asns {
		// Programs are keyed by object pointer, which the old snapshot
		// still resolves even when the journal replaced or deleted the
		// object (unchanged objects share the pointer across clones).
		if an, ok := v.DB.AutNum(asn); ok {
			if _, loaded := v.d.programs.LoadAndDelete(an); loaded {
				v.d.progCount.Add(-1)
				compiled = append(compiled, asn)
			}
		}
		if v.graph != nil {
			v.graph.RemoveProgram(asn)
		}
	}
	v.DB = db
	for _, asn := range asns {
		if an, ok := db.AutNum(asn); ok && v.onlyProviderPolicy(asn, an) {
			v.d.onlyProviderPolicies[asn] = true
		} else {
			delete(v.d.onlyProviderPolicies, asn)
		}
	}
	for _, asn := range compiled {
		if an, ok := db.AutNum(asn); ok {
			v.program(an)
		}
	}
}

// SetDepGraph attaches a dependency graph: every program compiled from
// now on registers the objects it resolved. Attach it before the first
// verification — programs compiled earlier have no recorded edges.
func (v *Verifier) SetDepGraph(g *depgraph.Graph) { v.graph = g }

// SetShardMetrics attaches the rpslyzer_shard_* fan-out histogram.
func (v *Verifier) SetShardMetrics(m *shard.Metrics) { v.shardMetrics = m }

// New creates a Verifier.
func New(db *irr.Database, rels *asrel.Database, cfg Config) *Verifier {
	cfg.fill()
	v := &Verifier{
		DB:        db,
		Rels:      rels,
		cfg:       cfg,
		useInterp: cfg.Eval == "interp",
	}
	v.d = v.newDerived()
	return v
}

// onlyProviderPolicy decides the Only Provider Policies property for
// one aut-num: all of its rule peerings are single AS numbers that are
// providers of the AS. It depends only on the aut-num's own peerings
// and the (static) relationship database, so an incremental update
// needs to recompute it only for the aut-nums a journal touched.
func (v *Verifier) onlyProviderPolicy(asn ir.ASN, an *ir.AutNum) bool {
	if an.RuleCount() == 0 {
		return false
	}
	providers := v.Rels.Providers(asn)
	isProvider := func(a ir.ASN) bool {
		for _, p := range providers {
			if p == a {
				return true
			}
		}
		return false
	}
	ok := true
	sawPeering := false
	forEachPeering(an, func(p *ir.Peering) {
		sawPeering = true
		if p.ASExpr == nil || p.ASExpr.Kind != ir.ASExprNum || !isProvider(p.ASExpr.ASN) {
			ok = false
		}
	})
	return ok && sawPeering
}

// forEachPeering visits every peering in every rule of an aut-num.
func forEachPeering(an *ir.AutNum, visit func(*ir.Peering)) {
	var walkExpr func(*ir.PolicyExpr)
	walkExpr = func(e *ir.PolicyExpr) {
		if e == nil {
			return
		}
		for i := range e.Factors {
			for j := range e.Factors[i].Peerings {
				visit(&e.Factors[i].Peerings[j].Peering)
			}
		}
		walkExpr(e.Left)
		walkExpr(e.Right)
	}
	for i := range an.Imports {
		walkExpr(an.Imports[i].Expr)
	}
	for i := range an.Exports {
		walkExpr(an.Exports[i].Expr)
	}
}

// compiledRegex returns (and caches) the compiled form of a path
// regex, or nil when it cannot be compiled.
func (v *Verifier) compiledRegex(r *ir.PathRegex) *asregex.Regex {
	d := v.d
	d.regexMu.RLock()
	re, ok := d.regexes[r]
	d.regexMu.RUnlock()
	if ok {
		return re
	}
	re, err := asregex.Compile(r)
	if err != nil {
		re = nil
	}
	d.regexMu.Lock()
	d.regexes[r] = re
	d.regexMu.Unlock()
	return re
}

// customerCone returns (and caches) the customer cone of an AS.
func (v *Verifier) customerCone(asn ir.ASN) map[ir.ASN]bool {
	d := v.d
	d.coneMu.RLock()
	cone, ok := d.cones[asn]
	d.coneMu.RUnlock()
	if ok {
		return cone
	}
	cone = v.Rels.CustomerCone(asn)
	d.coneMu.Lock()
	d.cones[asn] = cone
	d.coneMu.Unlock()
	return cone
}

// compareReason orders reasons deterministically for stable output.
func compareReason(a, b Reason) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.ASN != b.ASN {
		if a.ASN < b.ASN {
			return -1
		}
		return 1
	}
	return strings.Compare(a.Name, b.Name)
}
