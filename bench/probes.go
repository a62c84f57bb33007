package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/verify"
)

// The probes measure one layer in isolation, after the workload's
// timed region and only in the traced pass. They answer "what would a
// change to this layer alone be worth"; the spans answer "what does the
// layer cost inside the end-to-end path".

// goStats are the runtime's own counters at one moment.
type goStats struct {
	mem           runtime.MemStats
	gcCPU, allCPU float64
}

func readGoStats() goStats {
	var g goStats
	runtime.ReadMemStats(&g.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	g.gcCPU, g.allCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return g
}

// goDelta adds up what the runtime did over the measured region: the
// operations and windows, not the server build before them nor the
// checks and probes between and after them.
type goDelta struct {
	allocB, pauseMaxNs uint64
	cycles             uint32
	gcCPU, allCPU      float64
}

func (d *goDelta) add(from, to goStats) {
	d.allocB += to.mem.TotalAlloc - from.mem.TotalAlloc
	d.cycles += to.mem.NumGC - from.mem.NumGC
	d.gcCPU += to.gcCPU - from.gcCPU
	d.allCPU += to.allCPU - from.allCPU
	// PauseNs is a ring of the last 256 pauses; older ones are gone.
	for n := max(from.mem.NumGC, to.mem.NumGC-min(to.mem.NumGC, 256)); n < to.mem.NumGC; n++ {
		d.pauseMaxNs = max(d.pauseMaxNs, to.mem.PauseNs[n%256])
	}
}

func (d *goDelta) report(res *runResult) {
	res.layer("go.alloc_mb", float64(d.allocB)/1e6)
	res.layer("go.gc_cycles", float64(d.cycles))
	// The runtime brings its CPU classes up to date when a collection
	// ends: over a region with none, both deltas are 0.
	if d.allCPU > 0 {
		res.layer("go.gc_cpu_frac", d.gcCPU/d.allCPU)
	}
	res.layer("go.gc_pause_max_us", float64(d.pauseMaxNs)/1e3)
}

// heapAfterGC is the live heap in bytes.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// probeVerifyAndStore times a bare verifier sweep (cold, then warm: the
// difference is compilation and lazily built tables), a bare
// aggregator loop and a snapshot build, and sizes what each retains.
func probeVerifyAndStore(s *reportd, res *runResult) {
	routes := float64(len(s.routes))
	h0 := heapAfterGC()
	v := verify.New(s.db, s.rels, verify.Config{Eval: "compiled", Shards: runtime.GOMAXPROCS(0)})
	t0 := time.Now()
	reports := v.VerifyAll(s.routes, s.workers)
	res.layer("verify.cold_sweep_s", time.Since(t0).Seconds())
	reports = nil
	runtime.GC() // the warm sweep starts from the heap the cold one did
	a0 := totalAlloc()
	t0 = time.Now()
	reports = v.VerifyAll(s.routes, s.workers)
	res.layer("verify.warm_sweep_s", time.Since(t0).Seconds())
	res.layer("verify.alloc_b_per_route", float64(totalAlloc()-a0)/routes)
	h1 := heapAfterGC()
	res.layer("verify.live_b_per_route", float64(h1-h0)/routes)

	t0 = time.Now()
	agg := report.NewAggregator()
	for _, rep := range reports {
		agg.Add(rep)
	}
	res.layer("report.aggregate_s", time.Since(t0).Seconds())
	runtime.KeepAlive(agg)
	agg = nil

	h1 = heapAfterGC()
	a0 = totalAlloc()
	snap := reportstore.BuildSnapshot(reports)
	res.layer("reportstore.alloc_mb", float64(totalAlloc()-a0)/1e6)
	res.layer("reportstore.live_b_per_route", float64(heapAfterGC()-h1)/routes)
	runtime.KeepAlive(snap)
	runtime.KeepAlive(reports)
	runtime.KeepAlive(v)
}

// probeIngest times the loader's two paths, the splitter and the chunk
// parser on their own, and sizes the index.
func probeIngest(dir string, w *whoisd, rec *recorder, res *runResult) error {
	bytes, err := dumpBytes(dir)
	if err != nil {
		return err
	}
	mb := float64(bytes) / 1e6
	for _, p := range []struct {
		name string
		opts core.LoadOptions
	}{{"core.seq_load", core.LoadOptions{Sequential: true}}, {"core.par_load", core.LoadOptions{}}} {
		release()
		sp := rec.start(p.name, -1, -1)
		_, _, err := core.LoadDumpDirOpts(dir, p.opts)
		rec.end(sp)
		if err != nil {
			return err
		}
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*.db"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	var chunks []parser.Chunk
	t0 := time.Now()
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		sp := parser.NewSplitter(f, strings.ToUpper(strings.TrimSuffix(filepath.Base(path), ".db")), i, 0)
		for c, ok := sp.Next(); ok; c, ok = sp.Next() {
			chunks = append(chunks, c)
		}
		err = sp.Err()
		f.Close()
		if err != nil {
			return err
		}
	}
	res.layer("parser.split_mb_per_s", mb/time.Since(t0).Seconds())
	objects, parseErrors := 0, 0
	t0 = time.Now()
	for i, c := range chunks {
		r := parser.ParseChunk(c, i, 0)
		objects += r.Objects
		parseErrors += len(r.IR.Errors) + len(r.Diags)
	}
	res.layer("parser.chunk_parse_mb_per_s", mb/time.Since(t0).Seconds())
	res.layer("parser.objects", float64(objects))
	res.layer("parser.parse_errors", float64(parseErrors))
	chunks = nil

	// What the index retains on top of the IR it was built from.
	h0 := heapAfterGC()
	db := irr.NewSharded(w.x, runtime.GOMAXPROCS(0))
	res.layer("irr.live_b_per_route_obj", float64(heapAfterGC()-h0)/float64(len(w.x.Routes)))
	runtime.KeepAlive(db)
	return nil
}

// discard is an http.ResponseWriter that drops what it is given; with
// keep set it keeps the body.
type discard struct {
	h    http.Header
	keep bool
	body []byte
}

func (d *discard) Header() http.Header { return d.h }
func (d *discard) WriteHeader(int)     {}
func (d *discard) Write(p []byte) (int, error) {
	if d.keep {
		d.body = append(d.body, p...)
	}
	return len(p), nil
}

// inproc calls the handler directly: the api layer without net/http's
// transport.
func inproc(h http.Handler, path string, keep bool) *discard {
	d := &discard{h: make(http.Header), keep: keep}
	h.ServeHTTP(d, httptest.NewRequest(http.MethodGet, path, nil))
	return d
}

// probeAPI measures the api layer in-process over the workload's own
// request stream: a render (first request for a URI, on a server whose
// cache is empty), a cache hit (the second), and the closed-loop rate
// with no sockets. The gap between api.inproc_qps and ops_per_s is
// transport, which no change to api or reportstore can recover.
func probeAPI(cfg runConfig, s *reportd, pop populations, totals map[string]int64, rec *recorder, res *runResult) {
	sp := rec.start("api.inproc", -1, -1)
	defer rec.end(sp)
	fresh := api.NewServer(s.store, api.Config{CacheEntries: cacheEntries, PageSize: pageSize}, nil).Handler()
	w := newWalker(cfg, pop, totals, 0, 1)
	var uris []string
	seen := map[string]bool{}
	var miss []float64
	want := 2000
	if cfg.Smoke {
		want = 200
	}
	// The point mix may not hold that many distinct URIs; stop asking.
	for draws := 0; len(uris) < want && draws < 20*want; draws++ {
		path := w.next()
		t0 := time.Now()
		d := inproc(fresh, path, true)
		took := time.Since(t0)
		w.saw(path, d.body)
		if !seen[path] {
			seen[path] = true
			uris = append(uris, path)
			miss = append(miss, float64(took.Nanoseconds())/1e3)
		}
	}
	hit := make([]float64, 0, len(uris))
	for _, path := range uris {
		t0 := time.Now()
		inproc(fresh, path, false)
		hit = append(hit, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.layer("api.miss_p50_us", median(miss))
	res.layer("api.hit_p50_us", median(hit))

	n := clients()
	counts := make([]int, n)
	var wg sync.WaitGroup
	d := time.Second
	if cfg.Smoke {
		d /= 10
	}
	deadline := time.Now().Add(d)
	h := s.srv.Handler()
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := newWalker(cfg, pop, totals, i, n)
			_, scan := w.(*scanWalker)
			for time.Now().Before(deadline) {
				path := w.next()
				if d := inproc(h, path, scan); scan {
					w.saw(path, d.body)
				}
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	res.layer("api.inproc_qps", float64(total)/d.Seconds())
}
