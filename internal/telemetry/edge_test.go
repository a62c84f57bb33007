package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestHistogramZeroObservations(t *testing.T) {
	r := NewRegistry("edge")
	h := r.Histogram("empty_hist", "no observations", []float64{1, 2})
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count=%d sum=%v", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`empty_hist_bucket{le="1"} 0`,
		`empty_hist_bucket{le="2"} 0`,
		`empty_hist_bucket{le="+Inf"} 0`,
		"empty_hist_sum 0",
		"empty_hist_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramBelowFirstAndAboveLastBucket(t *testing.T) {
	r := NewRegistry("edge")
	h := r.Histogram("range_hist", "", []float64{1, 10})
	h.Observe(-5)  // below first bound: first bucket (le counts v <= bound)
	h.Observe(0.5) // first bucket
	h.Observe(100) // above last bound: +Inf only
	if h.Count() != 3 {
		t.Fatalf("count = %d, want 3", h.Count())
	}
	if got := h.Sum(); got != 95.5 {
		t.Fatalf("sum = %v, want 95.5", got)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`range_hist_bucket{le="1"} 2`,
		`range_hist_bucket{le="10"} 2`,
		`range_hist_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramConcurrentObserveWhileScrape(t *testing.T) {
	r := NewRegistry("edge")
	h := r.Histogram("busy_hist", "", []float64{0.001, 0.01, 0.1, 1})
	const goroutines, each = 8, 2000
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // scraper racing the observers
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(float64(i%5) / 100)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-scraperDone
	if h.Count() != goroutines*each {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*each)
	}
	var cum int64
	for _, c := range h.snapshot() {
		cum += c
	}
	if cum != goroutines*each {
		t.Fatalf("bucket total = %d, want %d", cum, goroutines*each)
	}
}

func TestLabeledCounterCardinalityCap(t *testing.T) {
	r := NewRegistry("edge")
	c := r.LabeledCounter("capped_total", "", "key")
	c.limit = 3
	for i := 0; i < 10; i++ {
		c.Inc("k" + strconv.Itoa(i))
	}
	vals := c.Values()
	if len(vals) != 4 { // 3 tracked + _other
		t.Fatalf("distinct labels = %d (%v), want 4", len(vals), vals)
	}
	if vals[OverflowLabel] != 7 {
		t.Errorf("overflow = %d, want 7", vals[OverflowLabel])
	}
	// Established labels keep counting past the cap.
	c.Inc("k0")
	if c.Value("k0") != 2 {
		t.Errorf("k0 = %d, want 2", c.Value("k0"))
	}
	// Explicit overflow writes merge into the same bucket.
	c.Add(OverflowLabel, 3)
	if c.Value(OverflowLabel) != 10 {
		t.Errorf("overflow = %d, want 10", c.Value(OverflowLabel))
	}
}

func TestLabeledCounterDefaultLimit(t *testing.T) {
	r := NewRegistry("edge")
	c := r.LabeledCounter("default_cap_total", "", "key")
	for i := 0; i < DefaultMaxLabelValues+50; i++ {
		c.Inc("k" + strconv.Itoa(i))
	}
	vals := c.Values()
	if len(vals) != DefaultMaxLabelValues+1 {
		t.Fatalf("distinct labels = %d, want %d", len(vals), DefaultMaxLabelValues+1)
	}
	if vals[OverflowLabel] != 50 {
		t.Errorf("overflow = %d, want 50", vals[OverflowLabel])
	}
}

func TestGaugeFuncAndInfoExposition(t *testing.T) {
	r := NewRegistry("edge")
	val := 1.5
	r.GaugeFunc("fn_gauge", "callback gauge", func() float64 { return val })
	r.Info("edge_build_info", "identity", map[string]string{"b": "2", "a": "1"})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fn_gauge 1.5") {
		t.Errorf("missing gauge func value in:\n%s", out)
	}
	if !strings.Contains(out, `edge_build_info{a="1",b="2"} 1`) {
		t.Errorf("missing sorted info labels in:\n%s", out)
	}
	val = 2.5 // the callback is read at every scrape
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fn_gauge 2.5") {
		t.Errorf("gauge func not re-read in:\n%s", buf.String())
	}
	var nilG *GaugeFunc
	if nilG.Value() != 0 {
		t.Error("nil GaugeFunc.Value != 0")
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry("edge")
	RegisterRuntimeMetrics(r)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "go_goroutines ") {
		t.Fatalf("missing go_goroutines in:\n%s", out)
	}
	// A live process always has at least one goroutine and some heap.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "go_goroutines ") {
			v, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil || v < 1 {
				t.Errorf("go_goroutines = %q", line)
			}
		}
	}
	// Idempotent re-registration must not panic.
	RegisterRuntimeMetrics(r)
}

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry("edge")
	labels := RegisterBuildInfo(r)
	if labels["go_version"] == "" {
		t.Errorf("missing go_version label: %v", labels)
	}
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "rpslyzer_build_info{") {
		t.Errorf("missing rpslyzer_build_info in:\n%s", buf.String())
	}
	// Idempotent.
	if again := RegisterBuildInfo(r); again["go_version"] != labels["go_version"] {
		t.Errorf("re-registration changed labels: %v vs %v", again, labels)
	}
}
