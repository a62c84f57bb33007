package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
)

// The load generators below are the benchmark's own, not api.RunLoad,
// so that a change to the program cannot change the load it is
// measured under.

const zipfS = 1.2

// reverseClasses and listStatuses are the classes and statuses the
// point mix asks for.
var (
	reverseClasses = []string{
		"missing-set", "no-rules", "uphill", "export-self",
		"MatchFilter", "MatchRemoteAsNum", "UnrecordedAutNum",
	}
	listStatuses = []string{"verified", "unverified", "unrecorded", "relaxed", "safelisted", "skip"}
)

// populations are the ASes a query may name, derived from routes.txt
// alone: every AS on a verified path owns at least one check, and every
// such path's last AS originates a route, so each drawn request must
// answer 200.
type populations struct {
	onPath  []uint32 // /v1/as/{asn}/report
	origins []uint32 // /v1/as/{asn}/routes
	ignored int      // routes the verifier must skip (AS-set or single-AS paths)
}

// dedupe drops consecutive repeats (AS-path prepending).
func dedupe(path []ir.ASN) []ir.ASN {
	var out []ir.ASN
	for i, a := range path {
		if i == 0 || a != path[i-1] {
			out = append(out, a)
		}
	}
	return out
}

func populationsOf(routes []bgpsim.Route) populations {
	onPath, origins := map[ir.ASN]bool{}, map[ir.ASN]bool{}
	var p populations
	for i := range routes {
		path := dedupe(routes[i].Path)
		if routes[i].HasASSet || len(path) <= 1 {
			p.ignored++
			continue
		}
		for _, a := range path {
			onPath[a] = true
		}
		origins[path[len(path)-1]] = true
	}
	sorted := func(set map[ir.ASN]bool) []uint32 {
		out := make([]uint32, 0, len(set))
		for a := range set {
			out = append(out, uint32(a))
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	p.onPath, p.origins = sorted(onPath), sorted(origins)
	return p
}

// walker yields a client's next request path; it sees each response
// body so that cursor walks can follow next_cursor. check, when
// non-empty, describes a response that contradicts an earlier one.
type walker interface {
	next() string
	saw(path string, body []byte) (check string)
}

// pointWalker draws api.DefaultMix endpoints with zipf-1.2 AS
// popularity: a few hundred distinct URIs, far fewer than the cache
// holds.
type pointWalker struct {
	rnd          *rand.Rand
	zPath, zOrig *rand.Zipf
	pop          populations
	endpoints    []string
	cum          []int
	lengths      map[string]int // body length by URI, to catch a cached reply that changes
}

func newPointWalker(pop populations, seed int64) *pointWalker {
	rnd := rand.New(rand.NewSource(seed))
	w := &pointWalker{
		rnd:     rnd,
		zPath:   rand.NewZipf(rnd, zipfS, 1, uint64(len(pop.onPath)-1)),
		zOrig:   rand.NewZipf(rnd, zipfS, 1, uint64(len(pop.origins)-1)),
		pop:     pop,
		lengths: make(map[string]int),
	}
	total := 0
	for _, ep := range []string{"as_report", "as_routes", "reports", "reverse", "summary", "ases"} {
		total += api.DefaultMix[ep]
		w.endpoints = append(w.endpoints, ep)
		w.cum = append(w.cum, total)
	}
	return w
}

func (w *pointWalker) next() string {
	n := w.rnd.Intn(w.cum[len(w.cum)-1])
	switch w.endpoints[sort.SearchInts(w.cum, n+1)] {
	case "as_report":
		return fmt.Sprintf("/v1/as/%d/report", w.pop.onPath[w.zPath.Uint64()])
	case "as_routes":
		return fmt.Sprintf("/v1/as/%d/routes", w.pop.origins[w.zOrig.Uint64()])
	case "reports":
		return "/v1/reports?status=" + listStatuses[w.rnd.Intn(len(listStatuses))]
	case "reverse":
		return "/v1/reverse/reason/" + reverseClasses[w.rnd.Intn(len(reverseClasses))]
	case "summary":
		return "/v1/summary"
	}
	return "/v1/ases?limit=100"
}

// saw decodes the first reply to each URI; a snapshot is immutable, so
// every later reply to it must have the same length.
func (w *pointWalker) saw(path string, body []byte) string {
	if n, ok := w.lengths[path]; ok {
		if n != len(body) {
			return fmt.Sprintf("%s: body length changed from %d to %d", path, n, len(body))
		}
		return ""
	}
	w.lengths[path] = len(body)
	if !json.Valid(body) {
		return path + ": body is not JSON"
	}
	return ""
}

// scanWalker pages through the whole report set: /v1/reports at the
// default page size, always following next_cursor, starting over when
// the listing ends. Client c of n starts at page c×pages/n, so no client
// reads a page another has just rendered, and by the time one comes
// round to a page again the cache has long dropped it: ≈ 33 k distinct
// pages go through a cache of 8192.
//
// The listing is the unfiltered one because its pages are alike: every
// page holds the corpus's own mix of statuses. Pages of one status are
// not (a page of "relaxed" checks is three times the bytes and time of
// a page of "verified" ones), and neither are per-AS pages, so walking
// those made the median request time fall between two kinds of page and
// jump from one to the other between runs.
type scanWalker struct {
	first  string // URI this client's first walk starts at
	start  int    // checks before that page
	total  int    // checks in the whole listing, from /v1/summary
	cursor string // empty at the start of a walk
	sum    int    // page lengths of the walk in progress
	done   int    // completed walks
}

func newScanWalker(totals map[string]int64, client, clients int) *scanWalker {
	w := &scanWalker{first: "/v1/reports"}
	for _, n := range totals {
		w.total += int(n)
	}
	if page := (w.total / pageSize) * client / clients; page > 0 {
		w.first = fmt.Sprintf("/v1/reports?page=%d", page)
		w.start = page * pageSize
	}
	return w
}

func (w *scanWalker) next() string {
	if w.cursor == "" {
		return w.first
	}
	return "/v1/reports?cursor=" + w.cursor
}

// saw adds the page to the walk; when the listing ends, the page
// lengths must sum to what /v1/summary says lies beyond the walk's
// start.
func (w *scanWalker) saw(path string, body []byte) string {
	var page struct {
		Checks     []json.RawMessage `json:"checks"`
		NextCursor string            `json:"next_cursor"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		return fmt.Sprintf("%s: %v", path, err)
	}
	w.sum += len(page.Checks)
	w.cursor = page.NextCursor
	if w.cursor != "" {
		return ""
	}
	sum, want := w.sum, w.total-w.start
	w.done++
	w.first, w.start, w.sum = "/v1/reports", 0, 0
	if sum != want {
		return fmt.Sprintf("%s: page lengths of the walk sum to %d, /v1/summary leaves %d", path, sum, want)
	}
	return ""
}

// readerWalker is the open-loop reader's mix beside a mirror: 70 %
// per-AS reports with zipf-1.2 popularity, 30 % summaries.
type readerWalker struct {
	rnd  *rand.Rand
	zipf *rand.Zipf
	pop  populations
}

func newReaderWalker(pop populations, seed int64) *readerWalker {
	rnd := rand.New(rand.NewSource(seed))
	return &readerWalker{rnd: rnd, zipf: rand.NewZipf(rnd, zipfS, 1, uint64(len(pop.onPath)-1)), pop: pop}
}

func (w *readerWalker) next() string {
	if w.rnd.Intn(100) < 70 {
		return fmt.Sprintf("/v1/as/%d/report", w.pop.onPath[w.zipf.Uint64()])
	}
	return "/v1/summary"
}

func (w *readerWalker) saw(string, []byte) string { return "" }

// openLoop is the schedule of an open-loop client: request k is due at
// k×interval whatever happened to the requests before it. A request's
// latency runs from its due time, so a stall is charged to every
// request it delayed, and its lateness is how long after the due time
// the generator managed to send it. All times are offsets from the
// start of the schedule.
type openLoop struct {
	interval  time.Duration
	k         int
	latencies []time.Duration
	lateness  []time.Duration
}

// due returns when the next request is due and advances the schedule.
func (o *openLoop) due() time.Duration {
	d := time.Duration(o.k) * o.interval
	o.k++
	return d
}

// done records one request that was due at due, sent at sent and
// answered at finished.
func (o *openLoop) done(due, sent, finished time.Duration) {
	o.latencies = append(o.latencies, finished-due)
	o.lateness = append(o.lateness, sent-due)
}

// lateFrac is the share of requests sent more than tolerance late.
func (o *openLoop) lateFrac(tolerance time.Duration) float64 {
	late := 0
	for _, l := range o.lateness {
		if l > tolerance {
			late++
		}
	}
	return float64(late) / float64(max(len(o.lateness), 1))
}
