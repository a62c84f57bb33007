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

// handler renders one endpoint from an immutable snapshot, appending
// the body to b. It must be pure in (snap, URL): the result is cached
// under the request URI.
type handler func(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr)

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
			s.writeEntry(w, endpoint, cacheEntry{code: http.StatusServiceUnavailable, body: noSnapshotBody})
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
	ent := cacheEntry{code: http.StatusOK}
	ent.body = renderBody(func(b []byte) []byte {
		b, apiE := fn(b, snap, r)
		if apiE != nil {
			ent.code = apiE.code
			return appendError(b[:0], apiE.msg)
		}
		return b
	})
	return ent
}

func (s *Server) writeEntry(w http.ResponseWriter, endpoint string, ent cacheEntry) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ent.code)
	w.Write(ent.body)
	s.m.observe(endpoint, ent.code, len(ent.body))
	s.cfg.Watchdog.RecordRequest(ent.code)
}

// handleHealthz is deliberately outside wrap: it must answer (200 with
// ready=false) even before the first snapshot swap, and is never
// cached. With a watchdog configured it doubles as the SLO probe:
// while staleness or error-rate thresholds are breached it answers 503
// with the breach reasons, so load balancers drain a stale replica.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.store.Current()
	st := s.cfg.Watchdog.Status()
	body := renderBody(func(b []byte) []byte { return appendHealthz(b, snap, st) })
	w.Header().Set("Content-Type", "application/json")
	if st.Health == trace.Degraded {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	w.Write(body)
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

// ---- response shapes ----
//
// These types are the wire schema: clients and tests decode responses
// into them. The server never builds them; encode.go appends the bytes
// encoding/json would write for them.

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

func (s *Server) handleSummary(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	sum := snap.Summary()
	b = append(b, `{"serial":`...)
	b = appendUint(b, snap.Serial())
	b = append(b, `,"built_at":`...)
	b = appendTime(b, snap.BuiltAt())
	b = append(b, `,"swaps":`...)
	b = appendUint(b, s.store.Swaps())
	b = append(b, `,"routes":`...)
	b = appendInt(b, sum.Routes)
	b = append(b, `,"ignored_as_set":`...)
	b = appendInt(b, sum.IgnoredASSet)
	b = append(b, `,"ignored_single_as":`...)
	b = appendInt(b, sum.IgnoredSingleAS)
	b = append(b, `,"ases":`...)
	b = appendInt(b, int64(sum.ASes))
	b = append(b, `,"pairs":`...)
	b = appendInt(b, int64(sum.Pairs))
	b = append(b, `,"checks":`...)
	b = appendStatusCounts(b, &sum.Checks)
	b = append(b, `,"first_hop":`...)
	b = appendStatusCounts(b, &sum.FirstHop)
	return append(b, '}'), nil
}

func (s *Server) handleASes(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}
	b = append(b, `{"serial":`...)
	b = appendUint(b, snap.Serial())
	return appendASPage(b, snap.ASNs(), offset, limit, snap.Serial()), nil
}

func (s *Server) handleASReport(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	asn, apiE := pathASN(r)
	if apiE != nil {
		return b, apiE
	}
	entry, ok := snap.AS(asn)
	if !ok || entry.Stats == nil {
		return b, errf(http.StatusNotFound, "no report for %s", asn)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}
	end := min(offset+limit, len(entry.Checks))
	offset = min(offset, end)
	b = append(b, `{"asn":`...)
	b = appendUint(b, uint64(asn))
	b = append(b, `,"serial":`...)
	b = appendUint(b, snap.Serial())
	b = append(b, `,"total_checks":`...)
	b = appendInt(b, int64(len(entry.Checks)))
	b = append(b, `,"imports":`...)
	b = appendStatusCounts(b, &entry.Stats.Imports)
	b = append(b, `,"exports":`...)
	b = appendStatusCounts(b, &entry.Stats.Exports)
	b = appendCauses(b, `,"unrecorded_causes":`, entry.Stats.UnrecCauses, report.CauseNoAutNum, report.CauseMissingSet)
	b = appendCauses(b, `,"special_causes":`, entry.Stats.SpecialCauses, report.CauseExportSelf, report.CauseUphill)
	b = append(b, `,"checks":[`...)
	for i, idx := range entry.Checks[offset:end] {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendCheck(b, snap, idx)
	}
	b = append(b, ']')
	b = appendNextCursor(b, snap.Serial(), end, len(entry.Checks))
	return append(b, '}'), nil
}

func (s *Server) handleASRoutes(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	asn, apiE := pathASN(r)
	if apiE != nil {
		return b, apiE
	}
	entry, ok := snap.AS(asn)
	if !ok || len(entry.Routes) == 0 {
		return b, errf(http.StatusNotFound, "no routes originated by %s", asn)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}
	end := min(offset+limit, len(entry.Routes))
	offset = min(offset, end)
	b = append(b, `{"asn":`...)
	b = appendUint(b, uint64(asn))
	b = append(b, `,"serial":`...)
	b = appendUint(b, snap.Serial())
	b = append(b, `,"total_routes":`...)
	b = appendInt(b, int64(len(entry.Routes)))
	b = append(b, `,"routes":[`...)
	for i, idx := range entry.Routes[offset:end] {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRoute(b, snap, idx)
	}
	b = append(b, ']')
	b = appendNextCursor(b, snap.Serial(), end, len(entry.Routes))
	return append(b, '}'), nil
}

// handleReports pages over checks filtered by status and/or reason.
// The cursor offset indexes the underlying scan (the narrower of the
// two inverted indexes, or every check), so pages are stable
// within a snapshot no matter how selective the residual filter is.
func (s *Server) handleReports(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	q := r.URL.Query()
	var (
		statusSet  bool
		status     verify.Status
		reasonSet  bool
		reasonKind verify.ReasonKind
	)
	if v := q.Get("status"); v != "" {
		if err := status.UnmarshalText([]byte(v)); err != nil {
			return b, errf(http.StatusBadRequest, "bad status %q", v)
		}
		statusSet = true
	}
	if v := q.Get("reason"); v != "" {
		kind, ok := verify.ParseReasonKind(v)
		if !ok {
			return b, errf(http.StatusBadRequest, "bad reason kind %q", v)
		}
		reasonSet = true
		reasonKind = kind
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}

	// Scan the most selective precomputed index; apply the other
	// filter (if any) per record.
	var scan func(i int) (uint32, bool) // check number, matches residual filter
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

	b = append(b, `{"serial":`...)
	b = appendUint(b, snap.Serial())
	if statusSet {
		b = append(b, `,"status":`...)
		b = append(b, statusLit[status]...)
	}
	if reasonSet {
		b = append(b, `,"reason":`...)
		b = append(b, reasonLit[reasonKind]...)
	}
	b = append(b, `,"checks":[`...)
	n := 0
	i := min(offset, total)
	for ; i < total && n < limit; i++ {
		if ci, ok := scan(i); ok {
			if n > 0 {
				b = append(b, ',')
			}
			b = appendCheck(b, snap, ci)
			n++
		}
	}
	b = append(b, ']')
	b = appendNextCursor(b, snap.Serial(), i, total)
	return append(b, '}'), nil
}

// handleReverseReason inverts the per-AS view: which ASes exhibit a
// report item? The class is either a fine-grained reason kind
// ("MatchFilter", "UnrecordedAsSet", ...) or a Figure 5/6 cause class
// ("missing-set", "uphill", ...).
func (s *Server) handleReverseReason(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	class := r.PathValue("class")
	var (
		ases []ir.ASN
		kind string
	)
	if k, ok := verify.ParseReasonKind(class); ok {
		ases, kind = snap.ByReason(k).ASes, `"reason"`
	} else if c, ok := report.ParseCause(class); ok {
		ases, kind = snap.ByCause(c), `"cause"`
	} else {
		return b, errf(http.StatusNotFound, "unknown reason class %q", class)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}
	b = append(b, `{"serial":`...)
	b = appendUint(b, snap.Serial())
	b = append(b, `,"class":`...)
	b = appendJSONString(b, class)
	b = append(b, `,"kind":`...)
	b = append(b, kind...)
	return appendASPage(b, ases, offset, limit, snap.Serial()), nil
}

func (s *Server) handleReverseStatus(b []byte, snap *reportstore.Snapshot, r *http.Request) ([]byte, *apiErr) {
	name := r.PathValue("status")
	var status verify.Status
	if err := status.UnmarshalText([]byte(name)); err != nil {
		return b, errf(http.StatusNotFound, "unknown status %q", name)
	}
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return b, apiE
	}
	b = append(b, `{"serial":`...)
	b = appendUint(b, snap.Serial())
	b = append(b, `,"class":`...)
	b = append(b, statusLit[status]...)
	b = append(b, `,"kind":"status"`...)
	return appendASPage(b, snap.ByStatus(status).ASes, offset, limit, snap.Serial()), nil
}

// ---- render helpers ----

func pathASN(r *http.Request) (ir.ASN, *apiErr) {
	raw := r.PathValue("asn")
	// Accept "64500" and "AS64500" in any case.
	if len(raw) < 2 || !strings.EqualFold(raw[:2], "AS") {
		raw = "AS" + raw
	}
	asn, err := ir.ParseASN(raw)
	if err != nil {
		return 0, errf(http.StatusBadRequest, "bad AS number %q", r.PathValue("asn"))
	}
	return asn, nil
}
