// Command apiload is a closed-loop load generator for the report API:
// N workers each issue their next query the moment the previous one
// returns, AS popularity is zipf-distributed (hot ASes dominate, as in
// real operator traffic), and the endpoint mix is configurable. It
// reports achieved QPS and p50/p90/p99 latency as JSON — the API bench
// smoke records this in BENCH_api.json.
//
// Two modes:
//
//	apiload -addr http://127.0.0.1:8080          # drive a live reportd
//	apiload -selfserve -ases 300 -seed 42        # build a synthetic corpus,
//	                                             # serve it in-process, and
//	                                             # drive both transports
//
// Self-serve mode measures two targets: "http" (real TCP loopback with
// keep-alive, the end-to-end number) and "inproc" (direct handler
// dispatch, the cache-hit ceiling of the serving stack itself).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/verify"
)

// runJSON is one target's result plus the server-side cache numbers
// (self-serve only, where the metrics registry is in-process).
type runJSON struct {
	api.LoadResult
	HasCache    bool
	CacheHits   int64
	CacheMisses int64
	HitRatio    float64
}

// MarshalJSON splices the cache fields into LoadResult's JSON — the
// embedded marshaler would otherwise be promoted and drop them.
func (r runJSON) MarshalJSON() ([]byte, error) {
	base, err := json.Marshal(r.LoadResult)
	if err != nil || !r.HasCache {
		return base, err
	}
	extra, err := json.Marshal(struct {
		CacheHits   int64   `json:"cache_hits"`
		CacheMisses int64   `json:"cache_misses"`
		HitRatio    float64 `json:"hit_ratio"`
	}{r.CacheHits, r.CacheMisses, r.HitRatio})
	if err != nil {
		return nil, err
	}
	base[len(base)-1] = ','
	return append(base, extra[1:]...), nil
}

type outputJSON struct {
	Concurrency  int                `json:"concurrency"`
	DurationS    float64            `json:"duration_s"`
	ZipfS        float64            `json:"zipf_s"`
	Mix          map[string]int     `json:"mix"`
	ASPopulation int                `json:"as_population"`
	Runs         map[string]runJSON `json:"runs"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of a live report API (e.g. http://127.0.0.1:8080)")
		selfserve   = flag.Bool("selfserve", false, "build a synthetic corpus, serve it in-process, and drive that")
		ases        = flag.Int("ases", 300, "synthetic topology size for -selfserve")
		collectors  = flag.Int("collectors", 8, "synthetic collectors for -selfserve")
		seed        = flag.Int64("seed", 42, "deterministic seed (universe and query sequence)")
		duration    = flag.Duration("duration", 2*time.Second, "load duration per target")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers")
		mixFlag     = flag.String("mix", "", "endpoint weights, e.g. as_report=45,as_routes=20,reports=15,reverse=10,summary=5,ases=5")
		zipfS       = flag.Float64("zipf-s", 1.2, "zipf skew for AS popularity (>1)")
		out         = flag.String("out", "-", "write the JSON result to this file ('-' for stdout)")
		maxErrRate  = flag.Float64("max-error-rate", 0.01, "exit 1 when any run's error rate (net errors + 5xx over requests) exceeds this fraction (negative disables)")
	)
	flag.Parse()
	telemetry.SetupLogger("apiload", nil)

	mix, err := parseMix(*mixFlag)
	if err != nil {
		telemetry.Fatal("bad -mix", "err", err)
	}
	cfg := api.LoadConfig{
		Concurrency: *concurrency,
		Duration:    *duration,
		Mix:         mix,
		ZipfS:       *zipfS,
		Seed:        *seed,
	}
	output := outputJSON{
		Concurrency: *concurrency,
		DurationS:   duration.Seconds(),
		ZipfS:       *zipfS,
		Mix:         cfg.Mix,
		Runs:        make(map[string]runJSON),
	}
	if output.Mix == nil {
		output.Mix = api.DefaultMix
	}

	switch {
	case *selfserve:
		srv, m, asns := buildSelfServe(*ases, *collectors, *seed)
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			telemetry.Fatal("listen failed", "err", err)
		}
		output.ASPopulation = len(asns)

		// In-process first: it warms the response cache the HTTP run
		// then hits, and its number is the serving-stack ceiling.
		output.Runs["inproc"] = runTarget(api.NewInprocTarget(srv.Handler()), m, asns, cfg)
		httpTarget := api.NewHTTPTarget("http://"+srv.Addr().String(), *concurrency*2)
		output.Runs["http"] = runTarget(httpTarget, m, asns, cfg)

	case *addr != "":
		asns, err := api.FetchASNs(*addr)
		if err != nil {
			telemetry.Fatal("fetch AS population failed", "addr", *addr, "err", err)
		}
		if len(asns) == 0 {
			telemetry.Fatal("server reports no ASes", "addr", *addr)
		}
		output.ASPopulation = len(asns)
		output.Runs["http"] = runTarget(api.NewHTTPTarget(*addr, *concurrency*2), nil, asns, cfg)

	default:
		telemetry.Fatal("need -addr or -selfserve")
	}

	breached := ""
	for name, run := range output.Runs {
		fmt.Fprintf(os.Stderr,
			"%s: %d reqs in %.2fs = %.0f QPS (p50 %v, p99 %v; 2xx %d, 404 %d, 4xx %d, 5xx %d, net %d, error rate %.4f)\n",
			name, run.Requests, run.Duration.Seconds(), run.QPS, run.P50, run.P99,
			run.Status2xx, run.NotFound, run.Status4xx, run.Status5xx, run.NetErrors, run.ErrorRate)
		if *maxErrRate >= 0 && run.ErrorRate > *maxErrRate {
			breached = name
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			telemetry.Fatal("create output failed", "path", *out, "err", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(output); err != nil {
		telemetry.Fatal("write output failed", "err", err)
	}
	// Fail after the JSON lands so the bench record survives for triage.
	if breached != "" {
		run := output.Runs[breached]
		fmt.Fprintf(os.Stderr, "apiload: %s error rate %.4f exceeds -max-error-rate %.4f (%d errors / %d requests)\n",
			breached, run.ErrorRate, *maxErrRate, run.Errors, run.Requests)
		os.Exit(1)
	}
}

// buildSelfServe generates the synthetic universe and serves what a
// reportd started over it would: the daemon engine's in-memory boot
// verifies the collector routes and publishes the snapshot.
func buildSelfServe(ases, collectors int, seed int64) (*api.Server, *api.Metrics, []uint32) {
	sys, err := core.BuildSynthetic(core.Options{Seed: seed, ASes: ases, Collectors: collectors})
	if err != nil {
		telemetry.Fatal("build synthetic universe failed", "err", err)
	}
	e := daemon.NewEngine(&daemon.Process{Logger: slog.Default(), Registry: telemetry.Default()}, nil)
	if err := e.BootCorpus(sys.DB, sys.Rels, sys.CollectRoutes(collectors, seed), verify.Config{}, false); err != nil {
		telemetry.Fatal("boot failed", "err", err)
	}
	m := api.NewMetrics(telemetry.Default())
	srv := api.NewServer(e.Store(), api.Config{}, m)

	snap := e.Store().Current()
	asns := make([]uint32, len(snap.ASNs()))
	for i, a := range snap.ASNs() {
		asns[i] = uint32(a)
	}
	return srv, m, asns
}

// runTarget drives one target and folds in server-side cache counters
// when the metrics registry is local.
func runTarget(t api.Target, m *api.Metrics, asns []uint32, cfg api.LoadConfig) runJSON {
	var hits0, misses0 int64
	if m != nil {
		hits0, misses0 = m.CacheHits(), m.CacheMisses()
	}
	res, err := api.RunLoad(t, asns, cfg)
	if err != nil {
		telemetry.Fatal("load run failed", "err", err)
	}
	run := runJSON{LoadResult: res}
	if m != nil {
		run.HasCache = true
		run.CacheHits = m.CacheHits() - hits0
		run.CacheMisses = m.CacheMisses() - misses0
		if total := run.CacheHits + run.CacheMisses; total > 0 {
			run.HitRatio = float64(run.CacheHits) / float64(total)
		}
	}
	return run
}

func parseMix(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	mix := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want endpoint=weight)", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad mix weight %q", part)
		}
		mix[name] = w
	}
	return mix, nil
}
