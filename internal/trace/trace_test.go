package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"
)

func finishTrace(t *Tracer, stage, name string) *Span {
	sp := t.Start(stage, name)
	sp.End()
	return sp
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "y")
	if sp != nil {
		t.Fatalf("nil tracer Start = %v, want nil", sp)
	}
	sp.Child("c").Set("k", "v").SetInt("n", 1).End()
	sp.End()
	if got := tr.Recent(); got != nil {
		t.Errorf("nil Recent = %v", got)
	}
	if got := tr.Slowest(); got != nil {
		t.Errorf("nil Slowest = %v", got)
	}
	if got := tr.Summary(); got != nil {
		t.Errorf("nil Summary = %v", got)
	}
	var tk *TopK
	tk.Observe("a", 1)
	if tk.Top(5) != nil || tk.Len() != 0 {
		t.Error("nil TopK not inert")
	}
	var wd *Watchdog
	wd.RecordRefresh()
	wd.RecordRequest(500)
	if st := wd.Status(); st.Health != Healthy {
		t.Errorf("nil watchdog health = %v, want healthy", st.Health)
	}
	if StartOrChild(nil, nil, "s", "n") != nil {
		t.Error("StartOrChild(nil, nil) != nil")
	}
}

func TestRecentRingOrderingAndEviction(t *testing.T) {
	tr := New(Config{})
	tr.recentCap, tr.slowCap = 4, 0
	for i := 1; i <= 10; i++ {
		sp := tr.Start("s", "op"+strconv.Itoa(i))
		sp.End()
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("len(Recent) = %d, want 4", len(got))
	}
	// Newest first: op10, op9, op8, op7 — check via trace IDs.
	for i, trc := range got {
		want := uint64(10 - i)
		if trc.ID() != want {
			t.Errorf("Recent[%d].ID = %d, want %d", i, trc.ID(), want)
		}
	}
}

func TestRecentPartialRing(t *testing.T) {
	tr := New(Config{})
	tr.recentCap, tr.slowCap = 8, 0
	finishTrace(tr, "s", "a")
	finishTrace(tr, "s", "b")
	got := tr.Recent()
	if len(got) != 2 || got[0].ID() != 2 || got[1].ID() != 1 {
		t.Fatalf("partial ring Recent = %v (want ids 2,1)", got)
	}
}

func TestSlowestSetEvictsMin(t *testing.T) {
	tr := New(Config{})
	tr.recentCap, tr.slowCap = 0, 3
	durs := []time.Duration{5, 1, 3, 9, 2, 7} // ms
	for i, d := range durs {
		trc := &Trace{tracer: tr, id: uint64(i + 1), stage: "s", start: time.Now()}
		sp := &Span{tr: trc, id: 1, name: "op", start: trc.start}
		trc.spans = append(trc.spans, sp)
		sp.durNS.Store(int64(d * time.Millisecond))
		tr.finish(trc, d*time.Millisecond)
	}
	got := tr.Slowest()
	if len(got) != 3 {
		t.Fatalf("len(Slowest) = %d, want 3", len(got))
	}
	wantIDs := []uint64{4, 6, 1} // 9ms, 7ms, 5ms
	for i, trc := range got {
		if trc.ID() != wantIDs[i] {
			t.Errorf("Slowest[%d].ID = %d, want %d", i, trc.ID(), wantIDs[i])
		}
	}
}

func TestSampling(t *testing.T) {
	tr := New(Config{Sample: map[string]int{"hot": 4}})
	var sampled int
	for i := 0; i < 100; i++ {
		if sp := tr.Start("hot", "op"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 25 {
		t.Errorf("sampled %d of 100 at 1-in-4, want 25", sampled)
	}
	// Unlisted stage traces everything.
	if sp := tr.Start("cold", "op"); sp == nil {
		t.Error("unlisted stage not sampled")
	}
	// A caller-owned sampler: the caller takes one operation in
	// Period and reports all ten, and the stage reads the same.
	if got := tr.Period("hot"); got != 4 {
		t.Errorf("Period(hot) = %d, want 4", got)
	}
	if got := tr.Period("cold"); got != 1 {
		t.Errorf("Period(cold) = %d, want 1", got)
	}
	if got := (*Tracer)(nil).Period("hot"); got != 0 {
		t.Errorf("nil tracer Period = %d, want 0", got)
	}
	tr.StartSampled("cold", "op", time.Now()).End()
	tr.Offered("cold", 10)
	if cold := tr.Summary()[0]; cold.Ops != 11 || cold.Sampled != 2 || cold.Finished != 1 {
		t.Errorf("cold summary = %+v, want ops 11, sampled 2, finished 1", cold)
	}
	sum := tr.Summary()
	if len(sum) != 2 {
		t.Fatalf("Summary stages = %d, want 2", len(sum))
	}
	if sum[1].Stage != "hot" || sum[1].Ops != 100 || sum[1].Sampled != 25 || sum[1].SampleN != 4 {
		t.Errorf("hot summary = %+v", sum[1])
	}
}

func TestMaxSpansDrop(t *testing.T) {
	tr := New(Config{})
	tr.maxSpans = 3
	root := tr.Start("s", "root")
	c1 := root.Child("c1")
	c2 := root.Child("c2")
	if c1 == nil || c2 == nil {
		t.Fatal("children under cap returned nil")
	}
	if c3 := root.Child("c3"); c3 != nil {
		t.Fatal("child past cap not dropped")
	}
	c3 := root.Child("c3-again") // nil again, and tolerated
	c3.Set("k", "v").End()
	c1.End()
	c2.End()
	root.End()
	sum := tr.Summary()
	if sum[0].Dropped != 2 {
		t.Errorf("dropped = %d, want 2", sum[0].Dropped)
	}
}

func TestSpanTreeExport(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("mirror", "journal-apply").SetInt("serial", 7)
	child := root.Child("rebuild").Set("phase", "verify")
	grand := child.Child("store-build")
	grand.End()
	child.End()
	root.End()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("want 1 trace, got %d", len(recent))
	}
	ex := recent[0].Export()
	if ex.Stage != "mirror" || len(ex.Spans) != 3 {
		t.Fatalf("export = %+v", ex)
	}
	if ex.Spans[0].Parent != 0 || ex.Spans[1].Parent != 1 || ex.Spans[2].Parent != 2 {
		t.Errorf("parent links = %d,%d,%d want 0,1,2",
			ex.Spans[0].Parent, ex.Spans[1].Parent, ex.Spans[2].Parent)
	}
	if len(ex.Spans[0].Attrs) != 1 || ex.Spans[0].Attrs[0].Value != "7" {
		t.Errorf("root attrs = %v", ex.Spans[0].Attrs)
	}
	for i, sp := range ex.Spans {
		if sp.DurUS <= 0 || sp.Open {
			t.Errorf("span %d: dur=%v open=%v", i, sp.DurUS, sp.Open)
		}
	}
}

func TestDoubleEndKeepsFirstDuration(t *testing.T) {
	tr := New(Config{})
	sp := tr.Start("s", "op")
	sp.End()
	d1 := tr.Recent()[0].Duration()
	time.Sleep(2 * time.Millisecond)
	sp.End()
	if d2 := tr.Recent()[0].Duration(); d2 != d1 {
		t.Errorf("second End changed duration: %v -> %v", d1, d2)
	}
	if sum := tr.Summary(); sum[0].Finished != 1 {
		t.Errorf("finished = %d, want 1", sum[0].Finished)
	}
}

func TestConcurrentTracing(t *testing.T) {
	tr := New(Config{Sample: map[string]int{"hot": 3}})
	tr.recentCap, tr.slowCap = 16, 8
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sp := tr.Start("hot", "op")
				c := sp.Child("child")
				c.SetInt("i", int64(i))
				c.End()
				sp.End()
				if i%17 == 0 {
					tr.Recent()
					tr.Slowest()
					tr.Summary()
				}
			}
		}(g)
	}
	wg.Wait()
	sum := tr.Summary()
	if sum[0].Ops != 1600 {
		t.Errorf("ops = %d, want 1600", sum[0].Ops)
	}
	if sum[0].Finished != sum[0].Sampled {
		t.Errorf("finished %d != sampled %d", sum[0].Finished, sum[0].Sampled)
	}
	if len(tr.Recent()) != 16 {
		t.Errorf("recent len = %d, want 16", len(tr.Recent()))
	}
}

func TestTopKExactUnderCapacity(t *testing.T) {
	tk := NewTopK(10)
	tk.Observe("a", 5)
	tk.Observe("b", 1)
	tk.Observe("a", 2)
	tk.Observe("c", 3)
	top := tk.Top(0)
	if len(top) != 3 {
		t.Fatalf("len = %d, want 3", len(top))
	}
	if top[0].Key != "a" || top[0].Weight != 7 || top[0].Count != 2 || top[0].MaxError != 0 {
		t.Errorf("top[0] = %+v", top[0])
	}
	if top[1].Key != "c" || top[2].Key != "b" {
		t.Errorf("order = %s,%s want c,b", top[1].Key, top[2].Key)
	}
}

func TestTopKEviction(t *testing.T) {
	tk := NewTopK(2)
	tk.Observe("heavy", 100)
	tk.Observe("light", 1)
	tk.Observe("new", 5) // evicts light (weight 1); new gets 1+5=6, err=1
	top := tk.Top(2)
	if top[0].Key != "heavy" {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].Key != "new" || top[1].Weight != 6 || top[1].MaxError != 1 {
		t.Errorf("top[1] = %+v, want new w=6 err=1", top[1])
	}
	// A true heavy hitter always survives churn.
	for i := 0; i < 100; i++ {
		tk.Observe("churn"+strconv.Itoa(i), 1)
		tk.Observe("heavy", 10)
	}
	if top := tk.Top(1); top[0].Key != "heavy" {
		t.Errorf("heavy hitter evicted: %+v", top)
	}
}

// TestTopKEvictsTheMinimum holds the heap to a whole-sketch scan: over
// a skewed random stream the tracked weights stay those of a sketch
// that searches every entry for its minimum on each miss.
func TestTopKEvictsTheMinimum(t *testing.T) {
	tk := NewTopK(16)
	ref := map[string]float64{}
	rnd := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rnd, 1.1, 1, 400)
	for i := 0; i < 5000; i++ {
		key, w := "k"+strconv.FormatUint(zipf.Uint64(), 10), float64(rnd.Intn(9))
		tk.Observe(key, w)
		if _, ok := ref[key]; !ok && len(ref) == 16 {
			minKey := ""
			for k, v := range ref {
				if minKey == "" || v < ref[minKey] {
					minKey = k
				}
			}
			w += ref[minKey]
			delete(ref, minKey)
		}
		ref[key] += w
	}
	var got, want []float64
	for _, e := range tk.Top(0) {
		got = append(got, e.Weight)
	}
	for _, v := range ref {
		want = append(want, v)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(want)))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("weights = %v\nwant      %v", got, want)
	}
}

func TestTopKConcurrent(t *testing.T) {
	tk := NewTopK(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tk.Observe("k"+strconv.Itoa(i%16), float64(i%7))
				if i%50 == 0 {
					tk.Top(4)
				}
			}
		}(g)
	}
	wg.Wait()
	if tk.Len() != 8 {
		t.Errorf("len = %d, want 8", tk.Len())
	}
}

func TestWatchdogStaleness(t *testing.T) {
	now := time.Unix(1000, 0)
	wd := NewWatchdog(WatchdogConfig{MaxStaleness: 10 * time.Second})
	wd.nowFn = func() time.Time { return now }

	// Never refreshed: staleness check waits for the first refresh.
	if st := wd.Status(); st.Health != Healthy {
		t.Fatalf("pre-refresh health = %v, want healthy", st.Health)
	}
	wd.RecordRefresh()
	now = now.Add(5 * time.Second)
	if st := wd.Status(); st.Health != Healthy || st.Staleness != 5*time.Second {
		t.Fatalf("fresh status = %+v", st)
	}
	now = now.Add(6 * time.Second)
	st := wd.Status()
	if st.Health != Degraded || len(st.Reasons) != 1 {
		t.Fatalf("stale status = %+v, want degraded", st)
	}
	// Recovers on refresh.
	wd.RecordRefresh()
	if st := wd.Status(); st.Health != Healthy {
		t.Fatalf("post-refresh status = %+v, want healthy", st)
	}
}

func TestWatchdogErrorRate(t *testing.T) {
	now := time.Unix(5000, 0)
	wd := NewWatchdog(WatchdogConfig{MaxErrorRate: 0.1})
	wd.nowFn = func() time.Time { return now }

	// Below minWindowRequests: one 500 among few requests stays healthy.
	wd.RecordRequest(500)
	wd.RecordRequest(200)
	if st := wd.Status(); st.Health != Healthy {
		t.Fatalf("under-min status = %+v, want healthy", st)
	}
	for i := 0; i < 20; i++ {
		wd.RecordRequest(500)
	}
	st := wd.Status()
	if st.Health != Degraded || st.ErrorRate < 0.9 {
		t.Fatalf("erroring status = %+v, want degraded", st)
	}
	// Two windows later the errors age out entirely.
	now = now.Add(2*errorWindow + errorWindow/2)
	for i := 0; i < 20; i++ {
		wd.RecordRequest(200)
	}
	if st := wd.Status(); st.Health != Healthy || st.ErrorRate != 0 {
		t.Fatalf("recovered status = %+v, want healthy rate 0", st)
	}
}

func TestWatchdogWindowRotation(t *testing.T) {
	now := time.Unix(0, 0).Add(time.Hour)
	wd := NewWatchdog(WatchdogConfig{MaxErrorRate: 0.5})
	wd.nowFn = func() time.Time { return now }
	for i := 0; i < minWindowRequests; i++ {
		wd.RecordRequest(500)
	}
	// One window later the previous bucket still counts.
	now = now.Add(errorWindow)
	wd.RecordRequest(200)
	st := wd.Status()
	if st.Health != Degraded || st.Requests != minWindowRequests+1 {
		t.Fatalf("one-window-later status = %+v, want degraded with %d reqs", st, minWindowRequests+1)
	}
}

func TestChromeExport(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("mirror", "journal-apply")
	root.Child("apply").End()
	root.End()
	finishTrace(tr, "api", "GET /v1/summary")

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Recent()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	var meta, complete int
	stages := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			args := ev["args"].(map[string]any)
			stages[args["name"].(string)] = true
		case "X":
			complete++
			if ev["ts"] == nil || ev["dur"] == nil {
				t.Errorf("X event missing ts/dur: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 3 {
		t.Errorf("meta=%d complete=%d, want 2 and 3", meta, complete)
	}
	if !stages["stage:mirror"] || !stages["stage:api"] {
		t.Errorf("stage tracks = %v", stages)
	}
}

func TestHTTPHandler(t *testing.T) {
	tr := New(Config{Sample: map[string]int{"hot": 2}})
	tk := tr.RegisterTopK("slow_ases", NewTopK(8))
	tk.Observe("AS65001", 12.5)
	tk.Observe("AS65002", 2.5)
	for i := 0; i < 6; i++ {
		root := tr.Start("hot", "op")
		root.Child("inner").End()
		root.End()
	}

	srv := httptest.NewServer(tr.Handler())
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body) //nolint:errcheck
		return buf.Bytes()
	}

	var sum struct {
		Stages []StageSummary `json:"stages"`
		TopKs  []string       `json:"topk_sketches"`
	}
	if err := json.Unmarshal(get("/debug/trace/summary"), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Stages) != 1 || sum.Stages[0].Ops != 6 || sum.Stages[0].Sampled != 3 {
		t.Errorf("summary = %+v", sum.Stages)
	}
	if len(sum.TopKs) != 1 || sum.TopKs[0] != "slow_ases" {
		t.Errorf("topk names = %v", sum.TopKs)
	}

	var rec struct {
		Traces []TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(get("/debug/trace/recent?n=2"), &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Traces) != 2 || len(rec.Traces[0].Spans) != 2 {
		t.Errorf("recent = %+v", rec.Traces)
	}

	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(get("/debug/trace/chrome"), &chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("empty chrome export")
	}

	var topk map[string][]Entry
	if err := json.Unmarshal(get("/debug/trace/topk?name=slow_ases&n=1"), &topk); err != nil {
		t.Fatal(err)
	}
	if len(topk["slow_ases"]) != 1 || topk["slow_ases"][0].Key != "AS65001" {
		t.Errorf("topk = %+v", topk)
	}
	resp, err := srv.Client().Get(srv.URL + "/debug/trace/topk?name=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("unknown sketch status = %d, want 404", resp.StatusCode)
	}
}

func TestStartOrChild(t *testing.T) {
	tr := New(Config{})
	root := tr.Start("mirror", "apply")
	child := StartOrChild(tr, root, "rebuild", "rebuild")
	if child.tr != root.tr {
		t.Error("StartOrChild with parent did not join parent trace")
	}
	child.End()
	root.End()
	solo := StartOrChild(tr, nil, "rebuild", "rebuild")
	if solo == nil || solo.tr == root.tr {
		t.Error("StartOrChild without parent did not start a new trace")
	}
	solo.End()
	if got := len(tr.Recent()); got != 2 {
		t.Errorf("traces = %d, want 2", got)
	}
}

func TestParseSamples(t *testing.T) {
	m, err := ParseSamples("verify=1024, compile=16,api=64")
	if err != nil {
		t.Fatal(err)
	}
	if m["verify"] != 1024 || m["compile"] != 16 || m["api"] != 64 {
		t.Fatalf("parsed %v", m)
	}
	if m, err := ParseSamples(""); err != nil || len(m) != 0 {
		t.Fatalf("empty spec: %v %v", m, err)
	}
	for _, bad := range []string{"verify", "verify=", "verify=0", "=4", "verify=x"} {
		if _, err := ParseSamples(bad); err == nil {
			t.Errorf("ParseSamples(%q) accepted", bad)
		}
	}
}
