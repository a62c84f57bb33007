package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("g", "a gauge")
	g.Set(10)
	g.Dec()
	g.Add(-4)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Errorf("SetMax lowered the gauge: %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax(9) = %d", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var lc *LabeledCounter
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.SetMax(2)
	h.Observe(1)
	h.ObserveSince(time.Now())
	lc.Add("x", 1)
	sp := StartSpan(nil)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || lc.Value("x") != 0 {
		t.Error("nil metrics should read zero")
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat_seconds", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.002, 0.05, 5} {
		h.Observe(v)
	}
	if got := h.Count(); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if got := h.Sum(); got < 5.05 || got > 5.06 {
		t.Errorf("sum = %g, want ~5.0535", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Buckets are cumulative: le=0.001 gets 0.0005 and the exactly-on-
	// boundary 0.001; le=0.01 adds 0.002; le=0.1 adds 0.05; +Inf adds 5.
	for _, want := range []string{
		`lat_seconds_bucket{le="0.001"} 2`,
		`lat_seconds_bucket{le="0.01"} 3`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryDedup(t *testing.T) {
	r := NewRegistry("t")
	a := r.Counter("dup_total", "first")
	b := r.Counter("dup_total", "second")
	if a != b {
		t.Error("re-registering a counter should return the same instance")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Error("deduped counters should share state")
	}
	h1 := r.Histogram("h", "", []float64{1, 2})
	h2 := r.Histogram("h", "", []float64{5, 6, 7})
	if h1 != h2 {
		t.Error("re-registering a histogram should return the same instance")
	}
	defer func() {
		if recover() == nil {
			t.Error("registering an existing name with a different kind should panic")
		}
	}()
	r.Gauge("dup_total", "kind conflict")
}

func TestPrometheusTextFormat(t *testing.T) {
	r := NewRegistry("t")
	r.Counter("app_requests_total", "Requests served.").Add(42)
	r.Gauge("app_inflight", "In-flight requests.").Set(3)
	lc := r.LabeledCounter("app_errors_total", "Errors by source.", "source")
	lc.Add(`RI"PE`, 2)
	lc.Add("ARIN", 7)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP app_requests_total Requests served.\n# TYPE app_requests_total counter\napp_requests_total 42\n",
		"# TYPE app_inflight gauge\napp_inflight 3\n",
		"# TYPE app_errors_total counter\napp_errors_total{source=\"ARIN\"} 7\napp_errors_total{source=\"RI\\\"PE\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q in:\n%s", want, out)
		}
	}
	// Metrics must appear in name order for deterministic scrapes.
	if strings.Index(out, "app_errors_total") > strings.Index(out, "app_requests_total") {
		t.Error("metrics not sorted by name")
	}
}

func TestLabeledCounterConcurrent(t *testing.T) {
	r := NewRegistry("t")
	lc := r.LabeledCounter("x_total", "", "k")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				lc.Inc(fmt.Sprintf("key-%d", i%4))
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, v := range lc.Values() {
		total += v
	}
	if total != 800 {
		t.Errorf("total = %d, want 800", total)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry("serve-test")
	r.Counter("served_total", "").Add(1)
	ms, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr().String()

	body := httpGet(t, base+"/metrics")
	if !strings.Contains(body, "served_total 1") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	// The registry has one exposition; the expvar copy is gone.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars = %d, want 404", resp.StatusCode)
	}
	if cmdline := httpGet(t, base+"/debug/pprof/cmdline"); cmdline == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "error": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %s, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("bad level should error")
	}
}
