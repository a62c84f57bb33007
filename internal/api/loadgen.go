package api

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadConfig tunes the closed-loop load generator: each worker issues
// its next query as soon as the previous one completes, AS popularity
// follows a zipf distribution (a few hot ASes dominate, like real
// operator traffic), and the endpoint per query is drawn from Mix.
type LoadConfig struct {
	// Concurrency is the number of closed-loop workers (default 8).
	Concurrency int
	// Duration is how long to drive load (default 2s).
	Duration time.Duration
	// Mix assigns relative weights to endpoints; zero or nil uses
	// DefaultMix.
	Mix map[string]int
	// Seed drives the deterministic query sequence.
	Seed int64
}

// DefaultMix mirrors the operator workload the snippets describe:
// mostly per-AS report lookups, some route and filtered-report pages,
// a trickle of reverse and summary queries.
var DefaultMix = map[string]int{
	"as_report": 45,
	"as_routes": 20,
	"reports":   15,
	"reverse":   10,
	"summary":   5,
	"ases":      5,
}

// AS popularity is zipf(zipfS, zipfV), the skew bench/'s point walker
// draws with too.
const zipfS, zipfV = 1.2, 1

func (c *LoadConfig) fill() {
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if len(c.Mix) == 0 {
		c.Mix = DefaultMix
	}
}

// LoadResult summarizes one load run. Latency percentiles cover 2xx
// responses only — error paths (refused connections, 5xx shortcuts)
// have entirely different latency profiles and would poison the
// success-path numbers if folded in.
type LoadResult struct {
	Requests int64 `json:"requests"`
	// Errors is the legacy rollup: NetErrors + Status5xx.
	Errors   int64         `json:"errors"`
	NotFound int64         `json:"not_found"`
	Duration time.Duration `json:"-"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"-"`
	P90      time.Duration `json:"-"`
	P99      time.Duration `json:"-"`
	Max      time.Duration `json:"-"`
	// Per-class response counts. Status4xx excludes 404s, which the
	// zipf query mix produces by design (NotFound tracks those).
	Status2xx int64 `json:"status_2xx"`
	Status4xx int64 `json:"status_4xx"`
	Status5xx int64 `json:"status_5xx"`
	NetErrors int64 `json:"net_errors"`
	// ErrorRate is Errors / Requests (0 when no requests completed).
	ErrorRate float64 `json:"error_rate"`
}

// MarshalJSON flattens durations to float fields, so that apiload's
// JSON compares across runs.
func (r LoadResult) MarshalJSON() ([]byte, error) {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	durS, p50, p90, p99, maxUs := r.Duration.Seconds(), us(r.P50), us(r.P90), us(r.P99), us(r.Max)
	for _, f := range []float64{r.QPS, r.ErrorRate, durS, p50, p90, p99, maxUs} {
		if math.IsInf(f, 0) || math.IsNaN(f) {
			return nil, fmt.Errorf("api: load result holds %v, which is not a JSON number", f)
		}
	}
	b := append([]byte(nil), `{"requests":`...)
	b = appendInt(b, r.Requests)
	b = appendInt(append(b, `,"errors":`...), r.Errors)
	b = appendInt(append(b, `,"not_found":`...), r.NotFound)
	b = appendFloat(append(b, `,"qps":`...), r.QPS)
	b = appendInt(append(b, `,"status_2xx":`...), r.Status2xx)
	b = appendInt(append(b, `,"status_4xx":`...), r.Status4xx)
	b = appendInt(append(b, `,"status_5xx":`...), r.Status5xx)
	b = appendInt(append(b, `,"net_errors":`...), r.NetErrors)
	b = appendFloat(append(b, `,"error_rate":`...), r.ErrorRate)
	b = appendFloat(append(b, `,"duration_s":`...), durS)
	b = appendFloat(append(b, `,"p50_us":`...), p50)
	b = appendFloat(append(b, `,"p90_us":`...), p90)
	b = appendFloat(append(b, `,"p99_us":`...), p99)
	b = appendFloat(append(b, `,"max_us":`...), maxUs)
	return append(b, '}'), nil
}

// HTTPTarget drives a server over TCP with keep-alive connections.
type HTTPTarget struct {
	base   string
	client *http.Client
}

// NewHTTPTarget creates a target for base (e.g. "http://127.0.0.1:8080")
// with a connection pool sized for conns concurrent workers.
func NewHTTPTarget(base string, conns int) *HTTPTarget {
	if conns <= 0 {
		conns = 64
	}
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	return &HTTPTarget{base: base, client: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// Do issues one GET, draining the body so the connection is reused.
func (t *HTTPTarget) Do(path string) (int, error) {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// RunLoad drives target with cfg over the given AS population and
// returns achieved QPS and latency percentiles.
func RunLoad(target *HTTPTarget, asns []uint32, cfg LoadConfig) (LoadResult, error) {
	cfg.fill()
	if len(asns) == 0 {
		return LoadResult{}, fmt.Errorf("api: load generator needs a non-empty AS population")
	}
	picker, err := newQueryPicker(cfg.Mix)
	if err != nil {
		return LoadResult{}, err
	}

	var (
		requests, notFound            atomic.Int64
		ok2xx, bad4xx, bad5xx, netErr atomic.Int64
		wg                            sync.WaitGroup
		lats                          = make([][]int64, cfg.Concurrency)
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			zipf := rand.NewZipf(rnd, zipfS, zipfV, uint64(len(asns)-1))
			local := make([]int64, 0, 1<<16)
			for time.Now().Before(deadline) {
				path := picker.pick(rnd, asns[zipf.Uint64()])
				t0 := time.Now()
				code, err := target.Do(path)
				elapsed := time.Since(t0).Nanoseconds()
				requests.Add(1)
				switch {
				case err != nil:
					netErr.Add(1)
				case code >= 500:
					bad5xx.Add(1)
				case code == http.StatusNotFound:
					notFound.Add(1)
				case code >= 400:
					bad4xx.Add(1)
				default:
					ok2xx.Add(1)
					local = append(local, elapsed)
				}
			}
			lats[w] = local
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := LoadResult{
		Requests:  requests.Load(),
		Errors:    netErr.Load() + bad5xx.Load(),
		NotFound:  notFound.Load(),
		Duration:  elapsed,
		QPS:       float64(requests.Load()) / elapsed.Seconds(),
		Status2xx: ok2xx.Load(),
		Status4xx: bad4xx.Load(),
		Status5xx: bad5xx.Load(),
		NetErrors: netErr.Load(),
	}
	if res.Requests > 0 {
		res.ErrorRate = float64(res.Errors) / float64(res.Requests)
	}
	if len(all) > 0 {
		res.P50 = time.Duration(all[len(all)*50/100])
		res.P90 = time.Duration(all[len(all)*90/100])
		res.P99 = time.Duration(all[min(len(all)*99/100, len(all)-1)])
		res.Max = time.Duration(all[len(all)-1])
	}
	return res, nil
}

// queryPicker turns the weighted mix into request paths.
type queryPicker struct {
	endpoints []string
	cum       []int
	total     int
}

// reverseClasses cycles through representative reverse-query classes
// (cause classes and reason kinds both resolve).
var reverseClasses = []string{
	"missing-set", "no-rules", "uphill", "export-self",
	"MatchFilter", "MatchRemoteAsNum", "UnrecordedAutNum",
}

var listStatuses = []string{"verified", "unverified", "unrecorded", "relaxed", "safelisted", "skip"}

func newQueryPicker(mix map[string]int) (*queryPicker, error) {
	p := &queryPicker{}
	for _, ep := range []string{"as_report", "as_routes", "reports", "reverse", "summary", "ases"} {
		w := mix[ep]
		if w <= 0 {
			continue
		}
		p.total += w
		p.endpoints = append(p.endpoints, ep)
		p.cum = append(p.cum, p.total)
	}
	if p.total == 0 {
		return nil, fmt.Errorf("api: query mix has no positive weights")
	}
	return p, nil
}

func (p *queryPicker) pick(rnd *rand.Rand, asn uint32) string {
	n := rnd.Intn(p.total)
	i := sort.SearchInts(p.cum, n+1)
	switch p.endpoints[i] {
	case "as_report":
		return fmt.Sprintf("/v1/as/%d/report", asn)
	case "as_routes":
		return fmt.Sprintf("/v1/as/%d/routes", asn)
	case "reports":
		return "/v1/reports?status=" + listStatuses[rnd.Intn(len(listStatuses))]
	case "reverse":
		return "/v1/reverse/reason/" + reverseClasses[rnd.Intn(len(reverseClasses))]
	case "summary":
		return "/v1/summary"
	default:
		return "/v1/ases?limit=100"
	}
}

// FetchASNs pages through a live server's /v1/ases endpoint and
// returns the full AS population (the HTTP-target bootstrap).
func FetchASNs(base string) ([]uint32, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	var (
		out    []uint32
		cursor string
	)
	for {
		url := base + "/v1/ases?limit=1000"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		resp, err := client.Get(url)
		if err != nil {
			return nil, err
		}
		var page ASListJSON
		err = json.NewDecoder(resp.Body).Decode(&page)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("api: /v1/ases returned %d", resp.StatusCode)
		}
		out = append(out, page.ASes...)
		if page.NextCursor == "" {
			return out, nil
		}
		cursor = page.NextCursor
	}
}
