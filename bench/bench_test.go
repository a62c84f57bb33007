package main

import (
	"math"
	"os"
	"testing"
	"time"
)

// The workload children are this binary re-executed; under `go test`
// that is the test binary, so it must answer to the same orders.
func TestMain(m *testing.M) {
	if childMain() {
		return
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(v, n=4) from CPython.
	for _, c := range []struct {
		v         []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{10, 20, 30, 40}, 12.5, 25, 37.5},
	} {
		q1, m, q3 := quartiles(c.v)
		if !near(q1, c.q1) || !near(m, c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i)
		}
		return v
	}
	for _, c := range []struct {
		n     int
		p, at float64
	}{
		{3, 50, 1},          // too few for any percentile: the median
		{20, 50, 10},        // 9 beyond the median: still the fallback
		{21, 50, 10},        // 10 beyond the median
		{100, 50, 50},       // p90 would leave 9 beyond
		{101, 90, 90},       // p90 leaves exactly 10
		{1000, 90, 900},     // p99 would leave 9
		{1001, 99, 990},     // p99 leaves exactly 10
		{100000, 99, 99000}, // never above p99, whatever n
	} {
		p, v := tailPercentile(ramp(c.n))
		if p != c.p || v != c.at {
			t.Errorf("n=%d: picked p%v = %v, want p%v = %v", c.n, p, v, c.p, c.at)
		}
	}
}

func TestOpenLoopChargesAStallToTheRequestsItDelays(t *testing.T) {
	ms := time.Millisecond
	o := openLoop{interval: 10 * ms}
	// One connection, every request takes 1 ms, except the fourth,
	// which stalls for 35 ms; the generator sends each request when it
	// is due or, if the connection is still busy, as soon as it is free.
	free := time.Duration(0)
	for k := 0; k < 8; k++ {
		due := o.due()
		if due != time.Duration(k)*10*ms {
			t.Fatalf("request %d due at %v", k, due)
		}
		sent := max(due, free)
		took := ms
		if k == 3 {
			took = 35 * ms
		}
		free = sent + took
		o.done(due, sent, free)
	}
	wantLat := []time.Duration{1, 1, 1, 35, 26, 17, 8, 1}
	wantLate := []time.Duration{0, 0, 0, 0, 25, 16, 7, 0}
	for k := range wantLat {
		if o.latencies[k] != wantLat[k]*ms || o.lateness[k] != wantLate[k]*ms {
			t.Errorf("request %d: latency %v lateness %v, want %v %v", k, o.latencies[k], o.lateness[k], wantLat[k]*ms, wantLate[k]*ms)
		}
	}
	if got := o.lateFrac(ms); !near(got, 3.0/8) {
		t.Errorf("lateFrac = %v, want 0.375", got)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0}, // overlaps a: 30..50 is new
		{Name: "c", Start: 60 * ms, End: 70 * ms, Parent: 0},
		{Name: "d", Start: 95 * ms, End: 120 * ms, Parent: 0}, // runs past its parent: clipped
		{Name: "a1", Start: 12 * ms, End: 17 * ms, Parent: 1},
	}
	want := []time.Duration{45, 15, 30, 10, 25, 5}
	for i, got := range selfTimes(spans) {
		if got != want[i]*ms {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, got, want[i]*ms)
		}
	}
}

func TestUnaccountedFrac(t *testing.T) {
	ms := time.Millisecond
	var spans []span
	// Two operations of 100 ms whose layers explain 90 and 80 ms, and a
	// probe span that belongs to no operation.
	for run, explained := range []time.Duration{90, 80} {
		root := len(spans)
		base := time.Duration(run) * time.Second
		spans = append(spans,
			span{Name: rootSpan, Start: base, End: base + 100*ms, Parent: -1, Run: run},
			span{Name: "verify.init", Start: base, End: base + 50*ms, Parent: root, Run: run},
			span{Name: "reportstore.build", Start: base + 50*ms, End: base + explained*ms, Parent: root, Run: run})
	}
	spans = append(spans, span{Name: "probe", Start: 5 * time.Second, End: 6 * time.Second, Parent: -1, Run: -1})
	layers, unaccounted := layerSeconds(spans)
	if !near(unaccounted[0], 0.10) || !near(unaccounted[1], 0.20) || len(unaccounted) != 2 {
		t.Errorf("unaccounted = %v, want 0.10 and 0.20", unaccounted)
	}
	if _, ok := layers[rootSpan]; ok {
		t.Error("the root span was reported as a layer")
	}
	if !near(layers["reportstore.build"][1], 0.03) || !near(layers["probe"][-1], 1) {
		t.Errorf("layers = %v", layers)
	}
}

func TestTraceOverheadFrac(t *testing.T) {
	// 1000 spans at 1 µs each in a region of 101 ms: the region would
	// have taken 100 ms without them, so they added 1 %.
	if got := traceOverheadFrac(1000, time.Microsecond, 0.101); !near(got, 0.01) {
		t.Errorf("traceOverheadFrac = %v, want 0.01", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	r := func(q1, m, q3 float64) row { return row{Q1: q1, Median: m, Q3: q3} }
	for _, c := range []struct {
		m    metricSpec
		a, b row
		want string
	}{
		{lower, r(99, 100, 101), r(104, 105, 106), "unchanged"},
		{lower, r(99, 100, 101), r(114, 115, 116), "worse"},
		{lower, r(99, 100, 101), r(84, 85, 86), "better"},
		{higher, r(99, 100, 101), r(84, 85, 86), "worse"},
		{higher, r(99, 100, 101), r(114, 115, 116), "better"},
		{lower, r(90, 100, 110), r(100, 115, 120), "unresolved"}, // a's spread is 20 % and the ranges overlap
		{lower, r(90, 100, 110), r(130, 140, 150), "worse"},      // as noisy, but every quartile apart
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSmoke runs every workload once, untraced and traced, over 300-AS
// corpora: a change to the program's API that breaks the harness fails
// here instead of at the next benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five workloads")
	}
	root, spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	res, err := suite(root, spec, stamp(root, 42), options{seed: 42, seconds: 0.3, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Tried == 0 {
		t.Errorf("%d of %d operations failed", res.Failed, res.Tried)
	}
	// Every per-layer metric BENCHMARK.json names must come out of some
	// workload, or its row in every later report is a silent zero.
	for _, m := range spec.PerLayer {
		found := false
		for _, layers := range res.Layers {
			if _, ok := layers[m.Name]; ok {
				found = true
			}
		}
		if !found {
			t.Errorf("no workload reports %s", m.Name)
		}
	}
}
