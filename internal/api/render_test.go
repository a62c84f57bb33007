package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// The reference renderer: every response built as the wire structs in
// server.go and marshalled by encoding/json. The production encoder in
// encode.go must write the same bytes.

type errorJSON struct {
	Error string `json:"error"`
}

type healthzJSON struct {
	Ready     bool     `json:"ready"`
	Serial    uint64   `json:"serial"`
	Health    string   `json:"health"`
	Reasons   []string `json:"reasons,omitempty"`
	StaleSecs float64  `json:"staleness_seconds,omitempty"`
	ErrorRate float64  `json:"error_rate,omitempty"`
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
		Reasons: c.Reasons,
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

func nextCursor(serial uint64, offset, total int) string {
	if offset >= total {
		return ""
	}
	return fmt.Sprintf("v1:%d:%d", serial, offset)
}

func pageASN(ases []ir.ASN, offset, limit int, serial uint64) ([]uint32, string) {
	end := min(offset+limit, len(ases))
	offset = min(offset, end)
	return asnsToU32(ases[offset:end]), nextCursor(serial, end, len(ases))
}

type refHandler func(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr)

func refSummary(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	sum := snap.Summary()
	return SummaryJSON{
		Serial:          snap.Serial(),
		BuiltAt:         snap.BuiltAt(),
		Swaps:           s.store.Swaps(),
		Routes:          sum.Routes,
		IgnoredASSet:    sum.IgnoredASSet,
		IgnoredSingleAS: sum.IgnoredSingleAS,
		ASes:            sum.ASes,
		Pairs:           sum.Pairs,
		Checks:          statusMap(&sum.Checks),
		FirstHop:        statusMap(&sum.FirstHop),
	}, nil
}

func refASes(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
	offset, limit, apiE := s.pageParams(snap, r)
	if apiE != nil {
		return nil, apiE
	}
	asns := snap.ASNs()
	pageASNs, next := pageASN(asns, offset, limit, snap.Serial())
	return ASListJSON{Serial: snap.Serial(), TotalASes: len(asns), ASes: pageASNs, NextCursor: next}, nil
}

func refASReport(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
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

func refASRoutes(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
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

func refReports(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
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
	var scan func(i int) (uint32, bool)
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

func refReverseReason(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
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
	return ReverseJSON{Serial: snap.Serial(), Class: class, Kind: kind, TotalASes: len(ases), ASes: pageASNs, NextCursor: next}, nil
}

func refReverseStatus(s *Server, snap *reportstore.Snapshot, r *http.Request) (any, *apiErr) {
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
	return ReverseJSON{Serial: snap.Serial(), Class: status.String(), Kind: "status", TotalASes: len(ases), ASes: pageASNs, NextCursor: next}, nil
}

func refHealthz(snap *reportstore.Snapshot, st trace.StatusReport) healthzJSON {
	resp := healthzJSON{
		Ready:     snap != nil,
		Health:    st.HealthStr,
		Reasons:   st.Reasons,
		StaleSecs: st.StaleSecs,
		ErrorRate: st.ErrorRate,
	}
	if snap != nil {
		resp.Serial = snap.Serial()
	}
	return resp
}

func marshalLine(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	return append(b, '\n')
}

// referenceHandler answers s's routes from s's store and config, with
// every body built as the wire structs and marshalled by encoding/json.
func referenceHandler(t testing.TB, s *Server) http.Handler {
	mux := http.NewServeMux()
	wrap := func(fn refHandler) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			snap := s.store.Current()
			code, v := http.StatusOK, any(nil)
			if snap == nil {
				code, v = http.StatusServiceUnavailable, errorJSON{Error: "no snapshot loaded yet"}
			} else if resp, apiE := fn(s, snap, r); apiE != nil {
				code, v = apiE.code, errorJSON{Error: apiE.msg}
			} else {
				v = resp
			}
			w.WriteHeader(code)
			w.Write(marshalLine(t, v))
		}
	}
	mux.HandleFunc("GET /v1/summary", wrap(refSummary))
	mux.HandleFunc("GET /v1/ases", wrap(refASes))
	mux.HandleFunc("GET /v1/as/{asn}/report", wrap(refASReport))
	mux.HandleFunc("GET /v1/as/{asn}/routes", wrap(refASRoutes))
	mux.HandleFunc("GET /v1/reports", wrap(refReports))
	mux.HandleFunc("GET /v1/reverse/reason/{class}", wrap(refReverseReason))
	mux.HandleFunc("GET /v1/reverse/status/{status}", wrap(refReverseStatus))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st := s.cfg.Watchdog.Status()
		if st.Health == trace.Degraded {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write(marshalLine(t, refHealthz(s.store.Current(), st)))
	})
	return mux
}

// hostileNames are set names as untrusted registry data may spell
// them: HTML, quotes, control bytes, invalid UTF-8, the JavaScript
// line separators, U+FFFD itself and a 4-byte rune.
var hostileNames = []string{
	"AS-<x>&y", "", "AS-\xff\xfe", "AS-\u2028\u2029", `AS-"q"\`, "AS-\x00\x1f\x7f\t\n",
	"AS-\ufffd", "AS-\xe2\x82", "AS-\U0001F600", "AS-OK",
}

// hostileReports is a corpus that reaches every status, every reason
// kind with hostile set names, ASNs 0 and 4294967295, IPv4 and IPv6
// prefixes and ignored routes.
func hostileReports(t *testing.T) []verify.RouteReport {
	t.Helper()
	reasonASNs := []ir.ASN{0, 4294967295, 64500, 1}
	pathPool := []ir.ASN{4294967295, 64500, 64501, 64502, 65000, 1, 0}
	var out []verify.RouteReport
	k := 0
	for i := 0; i < 300; i++ {
		pfx := fmt.Sprintf("10.%d.%d.0/24", i/256, i%256)
		if i%3 == 0 {
			pfx = fmt.Sprintf("2001:db8:%x::/48", i)
		}
		path := make([]ir.ASN, 1+i%4)
		for j := range path {
			path[j] = pathPool[(i+j*3)%len(pathPool)]
		}
		rr := verify.RouteReport{Route: bgpsim.Route{Prefix: prefix.MustParse(pfx), Path: path}}
		switch i % 23 {
		case 5:
			rr.Ignored = "single-as"
		case 11:
			rr.Ignored = "as-set"
		case 17:
			rr.Ignored = "<ignored>&\u2028"
		default:
			for c := 0; c < 1+i%5; c++ {
				var reasons []verify.Reason
				for n := 0; n < k%4; n++ {
					reasons = append(reasons, verify.Reason{
						Kind: verify.ReasonKind((k + n) % verify.NumReasons),
						ASN:  reasonASNs[(k+n)%len(reasonASNs)],
						Name: hostileNames[(k+2*n)%len(hostileNames)],
					})
				}
				rr.Checks = append(rr.Checks, verify.Check{
					From:    path[c%len(path)],
					To:      pathPool[(i+c)%len(pathPool)],
					Dir:     ir.Direction(c % 2),
					Status:  verify.Status(k % report.NumStatuses),
					Reasons: reasons,
				})
				k++
			}
		}
		out = append(out, rr)
	}
	return out
}

// compareBodies requests path from both handlers and fails unless the
// status codes and bodies are byte-equal. It returns the body.
func compareBodies(t *testing.T, got, want http.Handler, path string) []byte {
	t.Helper()
	g, w := httptest.NewRecorder(), httptest.NewRecorder()
	got.ServeHTTP(g, httptest.NewRequest(http.MethodGet, path, nil))
	want.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	if g.Code != w.Code {
		t.Errorf("%s: code %d, encoding/json reference %d", path, g.Code, w.Code)
	}
	gb, wb := g.Body.Bytes(), w.Body.Bytes()
	if !bytes.Equal(gb, wb) {
		i := 0
		for i < len(gb) && i < len(wb) && gb[i] == wb[i] {
			i++
		}
		lo := max(0, i-60)
		t.Errorf("%s: body differs from encoding/json at byte %d\n got: ...%s\nwant: ...%s",
			path, i, gb[lo:min(len(gb), i+60)], wb[lo:min(len(wb), i+60)])
	}
	return gb
}

// walk follows next_cursor from base through the whole listing and
// returns the cursors it was handed.
func walk(t *testing.T, got, want http.Handler, base string) []string {
	t.Helper()
	var cursors []string
	path := base
	for n := 0; n < 10000; n++ {
		body := compareBodies(t, got, want, path)
		var page struct {
			NextCursor string `json:"next_cursor"`
		}
		if err := json.Unmarshal(body, &page); err != nil || page.NextCursor == "" {
			return cursors
		}
		cursors = append(cursors, page.NextCursor)
		path = withQuery(base, "cursor="+page.NextCursor)
	}
	t.Fatalf("%s: cursor walk did not end", base)
	return nil
}

// listing checks one paged listing: the whole cursor walk at the
// default page size, past the end, limit=1 and its next page, and
// limit=1000.
func listing(t *testing.T, got, want http.Handler, base string) {
	t.Helper()
	walk(t, got, want, base)
	for _, q := range []string{"page=1", "page=99999", "limit=1", "limit=1&page=2", "limit=1000", "limit=5000"} {
		compareBodies(t, got, want, withQuery(base, q))
	}
}

func withQuery(path, q string) string {
	if strings.Contains(path, "?") {
		return path + "&" + q
	}
	return path + "?" + q
}

// TestRenderMatchesEncodingJSON holds every /v1/ response and /healthz
// to the bytes encoding/json writes for the wire structs: every
// endpoint, every status and reason kind and their combinations, every
// page of every listing, cursors, every error class and an empty
// store, over a corpus whose set names are hostile.
func TestRenderMatchesEncodingJSON(t *testing.T) {
	store := reportstore.New(nil)
	s := NewServer(store, Config{}, nil)
	got, want := s.Handler(), referenceHandler(t, s)

	t.Run("empty store", func(t *testing.T) {
		for _, path := range []string{"/v1/summary", "/v1/ases", "/v1/as/1/report", "/v1/as/1/routes",
			"/v1/reports", "/v1/reverse/reason/uphill", "/v1/reverse/status/verified", "/healthz"} {
			compareBodies(t, got, want, path)
		}
	})

	store.Swap(reportstore.BuildSnapshot(hostileReports(t)))
	snap := store.Current()

	t.Run("summary and health", func(t *testing.T) {
		compareBodies(t, got, want, "/v1/summary")
		compareBodies(t, got, want, "/healthz")
	})
	t.Run("ases", func(t *testing.T) {
		listing(t, got, want, "/v1/ases")
	})
	t.Run("per AS", func(t *testing.T) {
		for _, asn := range snap.ASNs() {
			listing(t, got, want, fmt.Sprintf("/v1/as/%d/report", asn))
			listing(t, got, want, fmt.Sprintf("/v1/as/AS%d/routes", asn))
		}
		for _, path := range []string{"/v1/as/4294967295/report", "/v1/as/0/report", "/v1/as/0/routes",
			"/v1/as/64999/report", "/v1/as/64999/routes", "/v1/as/4294967296/report", "/v1/as/%3Cx%3E/report"} {
			compareBodies(t, got, want, path)
		}
	})
	t.Run("reports", func(t *testing.T) {
		listing(t, got, want, "/v1/reports")
		for st := verify.Status(0); int(st) < report.NumStatuses; st++ {
			listing(t, got, want, "/v1/reports?status="+st.String())
		}
		for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
			listing(t, got, want, "/v1/reports?reason="+k.String())
			for st := verify.Status(0); int(st) < report.NumStatuses; st++ {
				walk(t, got, want, "/v1/reports?reason="+k.String()+"&status="+st.String())
			}
		}
	})
	t.Run("reverse", func(t *testing.T) {
		for k := verify.ReasonKind(0); int(k) < verify.NumReasons; k++ {
			listing(t, got, want, "/v1/reverse/reason/"+k.String())
		}
		for c := report.Cause(0); c < report.NumCauses; c++ {
			listing(t, got, want, "/v1/reverse/reason/"+c.String())
		}
		for st := verify.Status(0); int(st) < report.NumStatuses; st++ {
			listing(t, got, want, "/v1/reverse/status/"+st.String())
		}
	})
	t.Run("errors", func(t *testing.T) {
		for _, path := range []string{
			"/v1/reports?status=%3Cscript%3E&x", "/v1/reports?reason=%E2%80%A8%FF", "/v1/reports?page=-1",
			"/v1/reports?limit=0", "/v1/ases?limit=%3C", "/v1/ases?page=9000000000000000000",
			"/v1/ases?cursor=garbage", "/v1/ases?cursor=v1:1:9223372036854775800",
			"/v1/reverse/reason/%3Cb%3E", "/v1/reverse/status/%26", "/v1/as/ASX/report",
		} {
			compareBodies(t, got, want, path)
		}
	})

	// A cursor minted against serial 1 is gone once serial 2 is served.
	stale := walk(t, got, want, "/v1/reports?limit=50")
	if len(stale) == 0 {
		t.Fatal("no cursor on the first page of /v1/reports")
	}
	store.Swap(reportstore.BuildSnapshot(hostileReports(t)))
	t.Run("after swap", func(t *testing.T) {
		compareBodies(t, got, want, "/v1/reports?limit=50&cursor="+stale[0])
		compareBodies(t, got, want, "/v1/summary")
		walk(t, got, want, "/v1/reports?status=unverified")
	})
}

// TestRenderMatchesEncodingJSONSynthetic holds the encoder to
// encoding/json over a verified synthetic corpus: every AS's report
// and routes, the summary, and pages of every status listing.
func TestRenderMatchesEncodingJSONSynthetic(t *testing.T) {
	_, srv := eqFixture(t)
	got, want := srv.Handler(), referenceHandler(t, srv)
	compareBodies(t, got, want, "/v1/summary")
	compareBodies(t, got, want, "/v1/ases?limit=1000")
	for _, asn := range srv.store.Current().ASNs() {
		compareBodies(t, got, want, fmt.Sprintf("/v1/as/%d/report", asn))
		compareBodies(t, got, want, fmt.Sprintf("/v1/as/%d/routes", asn))
	}
	for st := verify.Status(0); int(st) < report.NumStatuses; st++ {
		for _, page := range []string{"0", "3", "40"} {
			compareBodies(t, got, want, "/v1/reports?status="+st.String()+"&page="+page)
		}
	}
}

// TestHealthzAndLoadResultMatchEncodingJSON covers the two bodies whose
// floats the request-level test cannot pin: a health report's
// staleness and error rate, and apiload's result record.
func TestHealthzAndLoadResultMatchEncodingJSON(t *testing.T) {
	snap := reportstore.BuildSnapshot(nil)
	floats := []float64{0, 1, -0.5, 1.0 / 3, 1e-7, 9.99e-7, 1e-6, 123456789.125, 1e20, 1e21, 2.5e300, 5e-324}
	for _, f := range floats {
		for _, sn := range []*reportstore.Snapshot{nil, snap} {
			st := trace.StatusReport{Health: trace.Degraded, HealthStr: "degraded",
				Reasons: []string{"staleness <1s> & more", "\u2028"}, StaleSecs: f, ErrorRate: f / 7}
			if got, want := renderBody(func(b []byte) []byte { return appendHealthz(b, sn, st) }), marshalLine(t, refHealthz(sn, st)); !bytes.Equal(got, want) {
				t.Errorf("healthz %v:\n got %s\nwant %s", f, got, want)
			}
		}
		r := LoadResult{Requests: 10, Errors: 2, NotFound: 3, QPS: f * 3, Status2xx: 5, Status4xx: 1, Status5xx: 2,
			NetErrors: 0, ErrorRate: f, Duration: time.Duration(f * 1e9), P50: time.Duration(f * 1e3),
			P90: 1500 * time.Nanosecond, P99: time.Millisecond, Max: time.Duration(f)}
		type alias LoadResult
		us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
		want := marshalLine(t, struct {
			alias
			DurationS float64 `json:"duration_s"`
			P50us     float64 `json:"p50_us"`
			P90us     float64 `json:"p90_us"`
			P99us     float64 `json:"p99_us"`
			MaxUs     float64 `json:"max_us"`
		}{alias(r), r.Duration.Seconds(), us(r.P50), us(r.P90), us(r.P99), us(r.Max)})
		got := marshalLine(t, r)
		if !bytes.Equal(got, want) {
			t.Errorf("load result %v:\n got %s\nwant %s", f, got, want)
		}
	}
}

// FuzzAppendJSONString holds the encoder's string escaping to
// json.Marshal(string) on arbitrary bytes.
func FuzzAppendJSONString(f *testing.F) {
	ctrl := make([]byte, 0, 33)
	for c := byte(0); c < 0x20; c++ {
		ctrl = append(ctrl, c)
	}
	ctrl = append(ctrl, 0x7f)
	for _, s := range []string{
		"<script>&", `"\`, string(ctrl), "\xff", "\xe2\x82", "AS-\xe2\x82x",
		"\u2028\u2029", "\ufffd", "\U0001F600", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString([]byte("x"), s)
		if string(got[:1]) != "x" || !bytes.Equal(got[1:], want) {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", s, got[1:], want)
		}
	})
}
