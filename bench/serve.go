package main

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// serveWindows is how many windows a serve run is cut into; the run
// reports the median window, so one window with a long collection in it
// does not decide the result.
const serveWindows = 8

// runServe drives a static snapshot with closed-loop clients, each on
// one keep-alive connection: the point mix (cache-resident) or the
// cursor scan (working set several times the cache).
func runServe(cfg runConfig, rec *recorder, res *runResult) error {
	t0 := time.Now()
	s, err := startReportd(cfg.Dir, nil, -1, -1)
	if err != nil {
		return err
	}
	pop := populationsOf(s.routes)
	c, err := dial(s.base)
	if err != nil {
		return err
	}
	sum, err := summary(c)
	c.close()
	if err != nil {
		return err
	}
	n := clients()
	walkers := make([]walker, n)
	conns := make([]*conn, n)
	for i := range walkers {
		walkers[i] = newWalker(cfg, pop, sum.Checks, i, n)
		if conns[i], err = dial(s.base); err != nil {
			return err
		}
		defer conns[i].close()
	}
	windows, warm := serveWindows, 2*time.Second
	if cfg.Smoke {
		windows, warm = 1, 0
	}
	window := time.Duration(cfg.Seconds / float64(windows) * float64(time.Second))
	serveWindow(conns, walkers, warm, nil, -1, &runResult{})
	res.SetupS = time.Since(t0).Seconds()

	var p50, tail, qps, hit []float64
	collapsed := s.reg.Counter("rpslyzer_api_flight_collapsed_total", "")
	c0 := collapsed.Value()
	bytes := 0
	for w := 0; w < windows; w++ {
		h0, m0 := s.apiM.CacheHits(), s.apiM.CacheMisses()
		var g0 goStats
		if cfg.Trace {
			g0 = readGoStats()
		}
		us, nbytes, took := serveWindow(conns, walkers, window, rec, w, res)
		if cfg.Trace {
			res.gc.add(g0, readGoStats())
		}
		res.TimedS += took.Seconds()
		if len(us) == 0 {
			return fmt.Errorf("window %d completed no request", w)
		}
		hits, misses := s.apiM.CacheHits()-h0, s.apiM.CacheMisses()-m0
		sort.Float64s(us)
		v50, _ := percentile(us, 50)
		v99, beyond := percentile(us, 99)
		res.check(beyond >= 10 || cfg.Smoke, "window %d: only %d samples beyond p99 (n=%d)", w, beyond, len(us))
		p50 = append(p50, v50/1e3)
		tail = append(tail, v99/1e3)
		qps = append(qps, float64(len(us))/took.Seconds())
		hit = append(hit, float64(hits)/float64(max(hits+misses, 1)))
		bytes += nbytes
		res.Ops.N += len(us)
	}
	res.Ops.P50, res.Ops.Tail, res.Ops.TailPct = median(p50), median(tail), 99
	res.OpsPerS = median(qps)
	ratio := median(hit)
	// The ratios follow from the sizes: 300 ASes fit in the cache whole.
	if cfg.Workload == "serve-point-2k" {
		res.check(ratio >= 0.95 || cfg.Smoke, "cache hit ratio %.3f on the point mix, want >= 0.95", ratio)
	} else {
		res.check(ratio <= 0.05 || cfg.Smoke, "cache hit ratio %.3f on the scan, want <= 0.05", ratio)
		walks := 0
		for _, w := range walkers {
			walks += w.(*scanWalker).done
		}
		res.layer("bench.scan_walks_completed", float64(walks))
	}
	res.layer("api.cache_hit_ratio", ratio)
	res.layer("api.collapsed", float64(collapsed.Value()-c0))
	res.layer("api.resp_kb_per_req", float64(bytes)/1e3/float64(res.Ops.N))
	if cfg.Trace {
		probeAPI(cfg, s, pop, sum.Checks, rec, res)
	}
	return s.stop()
}

func newWalker(cfg runConfig, pop populations, totals map[string]int64, client, n int) walker {
	seed := cfg.Seed + int64(client)*7919
	if cfg.Workload == "serve-scan-2k" {
		return newScanWalker(totals, client, n)
	}
	return newPointWalker(pop, seed)
}

// serveWindow runs every client for d and returns the latencies (µs) of
// the requests answered 200, the body bytes read and the time taken.
// Any other outcome is a failed operation.
func serveWindow(conns []*conn, walkers []walker, d time.Duration, rec *recorder, run int, res *runResult) ([]float64, int, time.Duration) {
	type out struct {
		us     []float64
		bytes  int
		failed []string
		err    error
	}
	outs := make([]out, len(conns))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := range conns {
		wg.Add(1)
		go func(o *out, c *conn, w walker) {
			defer wg.Done()
			sp := rec.start("api.window", -1, run)
			defer rec.end(sp)
			for time.Now().Before(deadline) {
				path := w.next()
				t0 := time.Now()
				code, body, err := c.get(path)
				took := time.Since(t0)
				if err != nil {
					o.err = err
					return
				}
				if code != http.StatusOK {
					o.failed = append(o.failed, fmt.Sprintf("%s: status %d", path, code))
					continue
				}
				if bad := w.saw(path, body); bad != "" {
					o.failed = append(o.failed, bad)
					continue
				}
				o.us = append(o.us, float64(took.Nanoseconds())/1e3)
				o.bytes += len(body)
			}
		}(&outs[i], conns[i], walkers[i])
	}
	wg.Wait()
	took := time.Since(start)
	var us []float64
	nbytes := 0
	for _, o := range outs {
		us = append(us, o.us...)
		nbytes += o.bytes
		res.Attempted += len(o.us) + len(o.failed)
		for _, f := range o.failed {
			res.fail("%s", f)
		}
		if o.err != nil {
			res.Attempted++
			res.fail("client: %v", o.err)
		}
	}
	return us, nbytes, took
}
