// Package api serves verification reports over HTTP/JSON: the query
// surface SNIPPETS' route-verification server describes, in front of
// the hot-swappable reportstore. Operators ask for an AS's report or
// originated routes, page through checks filtered by status and
// reason, and invert the question — which ASes exhibit report item X?
//
// Every request loads the store's snapshot pointer once and answers
// entirely from that immutable generation; rendered responses land in
// a sharded LRU keyed by (snapshot serial, request URI) with
// singleflight collapse, so a hot query costs one atomic load, one
// cache probe, and one write after the first render. Cursors embed the
// serial they were minted against and return 410 Gone after a swap,
// making pagination torn-read-free by construction.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// SnapshotAgeHeader carries the age in seconds of the snapshot a /v1/*
// response was answered from, so clients can judge data freshness per
// response without a second round-trip.
const SnapshotAgeHeader = "X-RPSLyzer-Snapshot-Age"

// maxPageSize caps the limit= parameter.
const maxPageSize = 1000

// Config tunes the server.
type Config struct {
	// CacheEntries caps the response cache (default 8192; negative
	// disables caching).
	CacheEntries int
	// PageSize is the default page length (default 100).
	PageSize int
	// Watchdog, when non-nil, receives every /v1/* response code for
	// error-rate tracking and turns /healthz into an SLO probe: 503
	// with reasons while the watchdog reports degraded.
	Watchdog *trace.Watchdog
	// Tracer, when non-nil, emits sampled request spans under the
	// "api" stage.
	Tracer *trace.Tracer
}

func (c *Config) fill() {
	if c.CacheEntries == 0 {
		c.CacheEntries = 8192
	}
	if c.PageSize < 1 {
		c.PageSize = 100
	}
}

// Server is the report-query HTTP server. Construct with NewServer,
// then either mount Handler on an existing mux or call Listen/Shutdown
// for a standalone listener.
type Server struct {
	store  *reportstore.Store
	cfg    Config
	mux    *http.ServeMux
	cache  *lruCache
	flight *flightGroup
	m      *Metrics

	httpSrv *http.Server
	ln      net.Listener
	done    chan struct{}
	err     error
}

// NewServer wires a server over the store. Metrics may be nil.
func NewServer(store *reportstore.Store, cfg Config, m *Metrics) *Server {
	cfg.fill()
	s := &Server{
		store:  store,
		cfg:    cfg,
		mux:    http.NewServeMux(),
		cache:  newLRUCache(cfg.CacheEntries),
		flight: newFlightGroup(),
		m:      m,
	}
	s.mux.HandleFunc("GET /v1/summary", s.wrap("summary", s.handleSummary))
	s.mux.HandleFunc("GET /v1/ases", s.wrap("ases", s.handleASes))
	s.mux.HandleFunc("GET /v1/as/{asn}/report", s.wrap("as_report", s.handleASReport))
	s.mux.HandleFunc("GET /v1/as/{asn}/routes", s.wrap("as_routes", s.handleASRoutes))
	s.mux.HandleFunc("GET /v1/reports", s.wrap("reports", s.handleReports))
	s.mux.HandleFunc("GET /v1/reverse/reason/{class}", s.wrap("reverse", s.handleReverseReason))
	s.mux.HandleFunc("GET /v1/reverse/status/{status}", s.wrap("reverse", s.handleReverseStatus))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// Handler returns the server's routing handler (for in-process use and
// tests; Listen uses it too).
func (s *Server) Handler() http.Handler { return s.mux }

// Listen starts serving on addr until Shutdown. It returns once the
// listener is bound.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	s.done = make(chan struct{})
	go func() {
		err := s.httpSrv.Serve(ln)
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("api: serve %v: %v", ln.Addr(), err)
			s.err = err
		}
		close(s.done)
	}()
	return nil
}

// Done is closed when the serve loop exits (after Shutdown, or on a
// listener failure). Err reports why; nil for a graceful shutdown.
func (s *Server) Done() <-chan struct{} { return s.done }

// Err returns the serve-loop error once Done is closed, or nil if the
// server stopped via Shutdown.
func (s *Server) Err() error { return s.err }

// Addr returns the bound address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown gracefully stops the listener: new connections are refused,
// in-flight requests run to completion within ctx's deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Shutdown(ctx)
}

// apiErr is a non-200 outcome with its HTTP status.
type apiErr struct {
	code int
	msg  string
}

func errf(code int, format string, args ...any) *apiErr {
	return &apiErr{code: code, msg: fmt.Sprintf(format, args...)}
}

// handler renders one endpoint from an immutable snapshot. It must be
// pure in (snap, URL): the result is cached under the request URI.
type handler func(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr)

// wrap is the common request path: snapshot load, cache probe,
// singleflight render, telemetry, sampled tracing.
func (s *Server) wrap(endpoint string, fn handler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.incInflight()
		sp := s.m.span(endpoint)
		tsp := s.cfg.Tracer.Start("api", endpoint)
		tsp.Set("uri", r.URL.RequestURI())
		defer func() {
			tsp.End()
			sp.End()
			s.m.decInflight()
		}()

		snap := s.store.Current()
		if snap == nil {
			tsp.SetInt("code", http.StatusServiceUnavailable)
			s.writeEntry(w, endpoint, cacheEntry{code: http.StatusServiceUnavailable,
				body: mustJSON(errorJSON{Error: "no snapshot loaded yet"})})
			return
		}
		// Age is computed per response, not cached with the body: two
		// requests served from the same cache entry report different
		// ages.
		w.Header().Set(SnapshotAgeHeader,
			strconv.FormatFloat(time.Since(snap.BuiltAt()).Seconds(), 'f', 3, 64))
		key := cacheKey(snap.Serial(), r.URL.RequestURI())
		if ent, ok := s.cache.Get(key); ok {
			s.m.hit()
			tsp.Set("cache", "hit").SetInt("code", int64(ent.code))
			s.writeEntry(w, endpoint, ent)
			return
		}
		ent, shared := s.flight.Do(key, func() cacheEntry {
			s.m.miss()
			ent := render(fn, snap, r)
			if ent.code == http.StatusOK {
				s.cache.Put(key, ent.code, ent.body)
			}
			return ent
		})
		if shared {
			s.m.collapse()
		}
		tsp.Set("cache", "miss").SetInt("code", int64(ent.code))
		s.writeEntry(w, endpoint, ent)
	}
}

func cacheKey(serial uint64, uri string) string {
	return strconv.FormatUint(serial, 10) + "|" + uri
}

func render(fn handler, snap *reportstore.Snapshot, r *http.Request) cacheEntry {
	resp, apiE := fn(snap, r)
	if apiE != nil {
		return cacheEntry{code: apiE.code, body: mustJSON(errorJSON{Error: apiE.msg})}
	}
	return cacheEntry{code: http.StatusOK, body: mustJSON(resp)}
}

func (s *Server) writeEntry(w http.ResponseWriter, endpoint string, ent cacheEntry) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ent.code)
	w.Write(ent.body)
	s.m.observe(endpoint, ent.code, len(ent.body))
	s.cfg.Watchdog.RecordRequest(ent.code)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Response types are plain structs/maps; a marshal failure is a
		// programming error.
		panic(fmt.Sprintf("api: marshal failed: %v", err))
	}
	return append(b, '\n')
}

type errorJSON struct {
	Error string `json:"error"`
}

// handleHealthz is deliberately outside wrap: it must answer (200 with
// ready=false) even before the first snapshot swap, and is never
// cached. With a watchdog configured it doubles as the SLO probe:
// while staleness or error-rate thresholds are breached it answers 503
// with the breach reasons, so load balancers drain a stale replica.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	st := s.cfg.Watchdog.Status()
	resp := struct {
		Ready     bool     `json:"ready"`
		Serial    uint64   `json:"serial"`
		Health    string   `json:"health"`
		Reasons   []string `json:"reasons,omitempty"`
		StaleSecs float64  `json:"staleness_seconds,omitempty"`
		ErrorRate float64  `json:"error_rate,omitempty"`
	}{
		Ready:     snap != nil,
		Health:    st.HealthStr,
		Reasons:   st.Reasons,
		StaleSecs: st.StaleSecs,
		ErrorRate: st.ErrorRate,
	}
	if snap != nil {
		resp.Serial = snap.Serial()
	}
	w.Header().Set("Content-Type", "application/json")
	if st.Health == trace.Degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(mustJSON(resp))
}

// ---- pagination ----

// pageParams resolves cursor/page/limit query parameters against the
// snapshot being served. Cursors are "v1:<serial>:<offset>"; a cursor
// minted against an older generation gets 410 Gone (the client
// restarts from the first page — offsets are only meaningful within
// one immutable snapshot).
func (s *Server) pageParams(snap *reportstore.Snapshot, r *http.Request) (offset, limit int, apiE *apiErr) {
	q := r.URL.Query()
	limit = s.cfg.PageSize
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 1 {
			return 0, 0, errf(http.StatusBadRequest, "bad limit %q", ls)
		}
		limit = min(n, maxPageSize)
	}
	if cur := q.Get("cursor"); cur != "" {
		serial, off, err := parseCursor(cur)
		if err != nil || off > math.MaxInt-limit {
			return 0, 0, errf(http.StatusBadRequest, "bad cursor %q", cur)
		}
		if serial != snap.Serial() {
			return 0, 0, errf(http.StatusGone,
				"cursor from snapshot %d, now serving %d; restart pagination", serial, snap.Serial())
		}
		return off, limit, nil
	}
	if ps := q.Get("page"); ps != "" {
		// The bound keeps offset+limit within int range so downstream
		// min(offset+limit, total) arithmetic can never wrap negative.
		n, err := strconv.Atoi(ps)
		if err != nil || n < 0 || n > (math.MaxInt-limit)/limit {
			return 0, 0, errf(http.StatusBadRequest, "bad page %q", ps)
		}
		return n * limit, limit, nil
	}
	return 0, limit, nil
}

func parseCursor(cur string) (serial uint64, offset int, err error) {
	rest, ok := strings.CutPrefix(cur, "v1:")
	if !ok {
		return 0, 0, fmt.Errorf("bad cursor version")
	}
	sPart, oPart, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad cursor shape")
	}
	if serial, err = strconv.ParseUint(sPart, 10, 64); err != nil {
		return 0, 0, err
	}
	if offset, err = strconv.Atoi(oPart); err != nil || offset < 0 {
		return 0, 0, fmt.Errorf("bad cursor offset")
	}
	return serial, offset, nil
}

func nextCursor(serial uint64, offset, total int) string {
	if offset >= total {
		return ""
	}
	return fmt.Sprintf("v1:%d:%d", serial, offset)
}

// ---- response shapes ----

// CheckJSON is one check with enough route context to read standalone.
type CheckJSON struct {
	Prefix  string          `json:"prefix"`
	Path    []uint32        `json:"path"`
	From    uint32          `json:"from"`
	To      uint32          `json:"to"`
	Dir     string          `json:"dir"`
	Status  string          `json:"status"`
	Reasons []verify.Reason `json:"reasons,omitempty"`
}

// RouteJSON is one route with its per-status check counts.
type RouteJSON struct {
	Prefix   string           `json:"prefix"`
	Path     []uint32         `json:"path"`
	Ignored  string           `json:"ignored,omitempty"`
	Statuses map[string]int64 `json:"statuses,omitempty"`
}

// SummaryJSON is the corpus-wide rollup.
type SummaryJSON struct {
	Serial          uint64           `json:"serial"`
	BuiltAt         time.Time        `json:"built_at"`
	Swaps           uint64           `json:"swaps"`
	Routes          int64            `json:"routes"`
	IgnoredASSet    int64            `json:"ignored_as_set"`
	IgnoredSingleAS int64            `json:"ignored_single_as"`
	ASes            int              `json:"ases"`
	Pairs           int              `json:"pairs"`
	Checks          map[string]int64 `json:"checks"`
	FirstHop        map[string]int64 `json:"first_hop"`
}

// ASReportJSON is one AS's aggregate report plus a page of its checks.
type ASReportJSON struct {
	ASN              uint32           `json:"asn"`
	Serial           uint64           `json:"serial"`
	TotalChecks      int              `json:"total_checks"`
	Imports          map[string]int64 `json:"imports"`
	Exports          map[string]int64 `json:"exports"`
	UnrecordedCauses []string         `json:"unrecorded_causes,omitempty"`
	SpecialCauses    []string         `json:"special_causes,omitempty"`
	Checks           []CheckJSON      `json:"checks"`
	NextCursor       string           `json:"next_cursor,omitempty"`
}

// ASRoutesJSON is a page of the routes one AS originates.
type ASRoutesJSON struct {
	ASN         uint32      `json:"asn"`
	Serial      uint64      `json:"serial"`
	TotalRoutes int         `json:"total_routes"`
	Routes      []RouteJSON `json:"routes"`
	NextCursor  string      `json:"next_cursor,omitempty"`
}

// ReportsJSON is a filtered page over every check in the corpus.
type ReportsJSON struct {
	Serial     uint64      `json:"serial"`
	Status     string      `json:"status,omitempty"`
	Reason     string      `json:"reason,omitempty"`
	Checks     []CheckJSON `json:"checks"`
	NextCursor string      `json:"next_cursor,omitempty"`
}

// ReverseJSON answers "which ASes exhibit X".
type ReverseJSON struct {
	Serial     uint64   `json:"serial"`
	Class      string   `json:"class"`
	Kind       string   `json:"kind"`
	TotalASes  int      `json:"total_ases"`
	ASes       []uint32 `json:"ases"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// ASListJSON is a page of every indexed AS.
type ASListJSON struct {
	Serial     uint64   `json:"serial"`
	TotalASes  int      `json:"total_ases"`
	ASes       []uint32 `json:"ases"`
	NextCursor string   `json:"next_cursor,omitempty"`
}

// ---- endpoint handlers ----

func (s *Server) handleSummary(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	agg := snap.Aggregator()
	return SummaryJSON{
		Serial:          snap.Serial(),
		BuiltAt:         snap.BuiltAt(),
		Swaps:           s.store.Swaps(),
		Routes:          agg.Routes,
		IgnoredASSet:    agg.IgnoredASSet,
		IgnoredSingleAS: agg.IgnoredSingleAS,
		ASes:            agg.NumASes(),
		Pairs:           agg.NumPairs(),
		Checks:          statusMap(&agg.Checks),
		FirstHop:        statusMap(&agg.FirstHop),
	}, nil
}

func (s *Server) handleASes(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	asns := snap.ASNs()
	pageASNs, next := pageASN(asns, offset, limit, snap.Serial())
	return ASListJSON{
		Serial:     snap.Serial(),
		TotalASes:  len(asns),
		ASes:       pageASNs,
		NextCursor: next,
	}, nil
}

func (s *Server) handleASReport(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	asn, apiE := pathASN(r)
	if apiE != nil {
		return nil, apiE
	}
	entry, ok := snap.AS(asn)
	if !ok || entry.Stats == nil {
		return nil, errf(http.StatusNotFound, "no report for %s", asn)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	end := min(offset+limit, len(entry.Checks))
	offset = min(offset, end)
	checks := make([]CheckJSON, 0, end-offset)
	for _, idx := range entry.Checks[offset:end] {
		checks = append(checks, checkJSON(snap, idx))
	}
	return ASReportJSON{
		ASN:              uint32(asn),
		Serial:           snap.Serial(),
		TotalChecks:      len(entry.Checks),
		Imports:          statusMap(&entry.Stats.Imports),
		Exports:          statusMap(&entry.Stats.Exports),
		UnrecordedCauses: causeNames(entry.Stats.UnrecCauses, report.CauseNoAutNum, report.CauseMissingSet),
		SpecialCauses:    causeNames(entry.Stats.SpecialCauses, report.CauseExportSelf, report.CauseUphill),
		Checks:           checks,
		NextCursor:       nextCursor(snap.Serial(), end, len(entry.Checks)),
	}, nil
}

func (s *Server) handleASRoutes(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	asn, apiE := pathASN(r)
	if apiE != nil {
		return nil, apiE
	}
	entry, ok := snap.AS(asn)
	if !ok || len(entry.Routes) == 0 {
		return nil, errf(http.StatusNotFound, "no routes originated by %s", asn)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	end := min(offset+limit, len(entry.Routes))
	offset = min(offset, end)
	routes := make([]RouteJSON, 0, end-offset)
	for _, idx := range entry.Routes[offset:end] {
		routes = append(routes, routeJSON(snap, idx))
	}
	return ASRoutesJSON{
		ASN:         uint32(asn),
		Serial:      snap.Serial(),
		TotalRoutes: len(entry.Routes),
		Routes:      routes,
		NextCursor:  nextCursor(snap.Serial(), end, len(entry.Routes)),
	}, nil
}

// handleReports pages over checks filtered by status and/or reason.
// The cursor offset indexes the underlying scan (the narrower of the
// two inverted indexes, or the whole check arena), so pages are stable
// within a snapshot no matter how selective the residual filter is.
func (s *Server) handleReports(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	q := r.URL.Query()
	var (
		resp       ReportsJSON
		statusSet  bool
		status     verify.Status
		reasonSet  bool
		reasonKind verify.ReasonKind
	)
	if v := q.Get("status"); v != "" {
		if err := status.UnmarshalText([]byte(v)); err != nil {
			return nil, errf(http.StatusBadRequest, "bad status %q", v)
		}
		statusSet = true
		resp.Status = status.String()
	}
	if v := q.Get("reason"); v != "" {
		kind, ok := verify.ParseReasonKind(v)
		if !ok {
			return nil, errf(http.StatusBadRequest, "bad reason kind %q", v)
		}
		reasonSet = true
		reasonKind = kind
		resp.Reason = kind.String()
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}

	// Scan the most selective precomputed index; apply the other
	// filter (if any) per record.
	var scan func(i int) (uint32, bool) // arena index, matches residual filter
	var total int
	switch {
	case reasonSet:
		idx := snap.ByReason(reasonKind).Checks
		total = len(idx)
		scan = func(i int) (uint32, bool) {
			ci := idx[i]
			return ci, !statusSet || snap.Check(ci).Status == status
		}
	case statusSet:
		idx := snap.ByStatus(status).Checks
		total = len(idx)
		scan = func(i int) (uint32, bool) { return idx[i], true }
	default:
		total = snap.NumChecks()
		scan = func(i int) (uint32, bool) { return uint32(i), true }
	}

	resp.Serial = snap.Serial()
	resp.Checks = make([]CheckJSON, 0, limit)
	i := min(offset, total)
	for ; i < total && len(resp.Checks) < limit; i++ {
		if ci, ok := scan(i); ok {
			resp.Checks = append(resp.Checks, checkJSON(snap, ci))
		}
	}
	resp.NextCursor = nextCursor(snap.Serial(), i, total)
	return resp, nil
}

// handleReverseReason inverts the per-AS view: which ASes exhibit a
// report item? The class is either a fine-grained reason kind
// ("MatchFilter", "UnrecordedAsSet", ...) or a Figure 5/6 cause class
// ("missing-set", "uphill", ...).
func (s *Server) handleReverseReason(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	class := r.PathValue("class")
	var (
		ases []ir.ASN
		kind string
	)
	if k, ok := verify.ParseReasonKind(class); ok {
		ases, kind = snap.ByReason(k).ASes, "reason"
	} else if c, ok := report.ParseCause(class); ok {
		ases, kind = snap.ByCause(c), "cause"
	} else {
		return nil, errf(http.StatusNotFound, "unknown reason class %q", class)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	pageASNs, next := pageASN(ases, offset, limit, snap.Serial())
	return ReverseJSON{
		Serial:     snap.Serial(),
		Class:      class,
		Kind:       kind,
		TotalASes:  len(ases),
		ASes:       pageASNs,
		NextCursor: next,
	}, nil
}

func (s *Server) handleReverseStatus(snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	name := r.PathValue("status")
	var status verify.Status
	if err := status.UnmarshalText([]byte(name)); err != nil {
		return nil, errf(http.StatusNotFound, "unknown status %q", name)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	ases := snap.ByStatus(status).ASes
	pageASNs, next := pageASN(ases, offset, limit, snap.Serial())
	return ReverseJSON{
		Serial:     snap.Serial(),
		Class:      status.String(),
		Kind:       "status",
		TotalASes:  len(ases),
		ASes:       pageASNs,
		NextCursor: next,
	}, nil
}

// ---- render helpers ----

func pathASN(r *http.Request) (ir.ASN, *apiErr) {
	raw := r.PathValue("asn")
	// Accept both "64500" and "AS64500".
	if !strings.HasPrefix(raw, "AS") && !strings.HasPrefix(raw, "as") {
		raw = "AS" + raw
	}
	asn, err := ir.ParseASN(strings.ToUpper(raw))
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad AS number %q", r.PathValue("asn"))
	}
	return asn, nil
}

func statusMap(c *report.StatusCounts) map[string]int64 {
	out := make(map[string]int64, report.NumStatuses)
	for st := verify.Verified; st <= verify.Unverified; st++ {
		out[st.String()] = c[st]
	}
	return out
}

func causeNames(set report.CauseSet, from, to report.Cause) []string {
	var out []string
	for c := from; c <= to; c++ {
		if set.Has(c) {
			out = append(out, c.String())
		}
	}
	return out
}

func checkJSON(snap *reportstore.Snapshot, idx uint32) CheckJSON {
	c := snap.Check(idx)
	route := snap.Route(c.Route)
	return CheckJSON{
		Prefix:  route.Prefix.String(),
		Path:    asnsToU32(route.Path),
		From:    uint32(c.From),
		To:      uint32(c.To),
		Dir:     c.Dir.String(),
		Status:  c.Status.String(),
		Reasons: snap.CheckReasons(c),
	}
}

func routeJSON(snap *reportstore.Snapshot, idx uint32) RouteJSON {
	rec := snap.Route(idx)
	out := RouteJSON{
		Prefix:  rec.Prefix.String(),
		Path:    asnsToU32(rec.Path),
		Ignored: rec.Ignored,
	}
	if rec.CheckLen > 0 {
		var counts report.StatusCounts
		for i := rec.CheckOff; i < rec.CheckOff+rec.CheckLen; i++ {
			counts.Add(snap.Check(i).Status)
		}
		out.Statuses = statusMap(&counts)
	}
	return out
}

func asnsToU32(path []ir.ASN) []uint32 {
	out := make([]uint32, len(path))
	for i, a := range path {
		out[i] = uint32(a)
	}
	return out
}

func pageASN(ases []ir.ASN, offset, limit int, serial uint64) ([]uint32, string) {
	end := min(offset+limit, len(ases))
	offset = min(offset, end)
	return asnsToU32(ases[offset:end]), nextCursor(serial, end, len(ases))
}
