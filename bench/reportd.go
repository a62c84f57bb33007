package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// reportd's flag defaults. The benchmark sets no program knob: these
// are the values `reportd -mirror` runs with when given only paths.
const (
	reportdTraceSample = "verify=1024,compile=16,ingest=16,api=64"
	reportdTopK        = 64
	cacheEntries       = 8192
	pageSize           = 100
)

// reportd is everything cmd/reportd holds once it is serving in
// -mirror mode.
type reportd struct {
	reg    *telemetry.Registry
	rels   *asrel.Database
	routes []bgpsim.Route
	db     *irr.Database
	inc    *verify.Incremental
	store  *reportstore.Store
	apiM   *api.Metrics
	srv    *api.Server
	mir    *nrtm.Mirror
	base   string // host:port of the API listener

	workers int
}

// startReportd runs cmd/reportd's start-up sequence over the corpus in
// dir, from the files on disk to the first 200 on GET /v1/summary over
// loopback. Every call into a layer is one span under parent.
func startReportd(dir string, rec *recorder, parent, run int) (*reportd, error) {
	gmp := runtime.GOMAXPROCS(0)
	s := &reportd{reg: telemetry.NewRegistry("bench"), workers: gmp}
	samples, err := trace.ParseSamples(reportdTraceSample)
	if err != nil {
		return nil, err
	}
	tracer := trace.New(trace.Config{Sample: samples})
	watchdog := trace.NewWatchdog(trace.WatchdogConfig{})
	s.store = reportstore.New(reportstore.NewMetrics(s.reg))
	profiler := verify.NewProfiler(reportdTopK)
	profiler.Register(tracer)
	shardMetrics := shard.NewMetrics(s.reg)

	sp := rec.start("core.load_rels", parent, run)
	s.rels, err = core.LoadRels(filepath.Join(dir, "as-rel.txt"))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("core.load_routes", parent, run)
	s.routes, err = core.LoadRoutes(filepath.Join(dir, "routes.txt"))
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("core.load_dumps", parent, run)
	x, _, err := core.LoadDumpDir(dir)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("irr.index", parent, run)
	s.db = irr.NewSharded(x, gmp)
	rec.end(sp)
	shardMetrics.ObservePlan(s.db.ShardRouteCounts())

	sp = rec.start("verify.init", parent, run)
	s.inc, err = verify.NewIncremental(s.db, s.rels, verify.Config{Eval: "compiled", Shards: gmp})
	if err != nil {
		rec.end(sp)
		return nil, err
	}
	s.inc.Verifier().SetMetrics(verify.NewMetrics(s.reg))
	s.inc.Verifier().SetTracer(tracer)
	s.inc.Verifier().SetProfiler(profiler)
	s.inc.Verifier().SetShardMetrics(shardMetrics)
	s.inc.Init(s.routes, s.workers)
	rec.end(sp)

	sp = rec.start("reportstore.build", parent, run)
	snap := reportstore.BuildSnapshot(s.inc.Reports())
	rec.end(sp)
	sp = rec.start("reportstore.swap", parent, run)
	s.store.Swap(snap)
	rec.end(sp)
	watchdog.RecordRefresh()

	s.mir = nrtm.NewMirrorDB(s.db, nil, nrtm.NewMetrics(s.reg))

	sp = rec.start("api.first_answer", parent, run)
	defer rec.end(sp)
	s.apiM = api.NewMetrics(s.reg)
	s.srv = api.NewServer(s.store, api.Config{
		CacheEntries: cacheEntries,
		PageSize:     pageSize,
		Tracer:       tracer,
		Watchdog:     watchdog,
	}, s.apiM)
	if err := s.srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.base = s.srv.Addr().String()
	c, err := dial(s.base)
	if err != nil {
		return nil, err
	}
	defer c.close()
	code, _, err := c.get("/v1/summary")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("first GET /v1/summary: status %d", code)
	}
	return s, nil
}

// stop shuts the API listener down and waits for the serve loop.
func (s *reportd) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return err
	}
	<-s.srv.Done()
	return nil
}

// conn is one keep-alive HTTP/1.1 connection driven synchronously:
// write a GET, read the response. It stands in for net/http's client,
// whose per-connection goroutines would bill two scheduler hand-offs
// per request to the server being measured.
type conn struct {
	c    net.Conn
	r    *bufio.Reader
	host string
	body bytes.Buffer
}

func dial(hostport string) (*conn, error) {
	c, err := net.Dial("tcp", hostport)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, r: bufio.NewReaderSize(c, 64<<10), host: hostport}, nil
}

func (c *conn) close() { c.c.Close() }

// get issues GET path and returns the status and the body. The body is
// valid until the next get.
func (c *conn) get(path string) (int, []byte, error) {
	if err := c.c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := fmt.Fprintf(c.c, "GET %s HTTP/1.1\r\nHost: %s\r\n\r\n", path, c.host); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.r, nil)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}
