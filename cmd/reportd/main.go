// Command reportd serves verification reports over HTTP: it loads IRR
// dumps, an AS-relationship file, and a BGP route dump, verifies every
// route, indexes the per-check results into an immutable snapshot, and
// answers operator queries (per-AS reports, originated routes,
// filtered report pages, reverse lookups) from an LRU-cached JSON API.
//
// With -import it skips verification and serves a report file written
// by `verify -json`. With -mirror it watches an NRTM journal
// directory: after each applied journal the database moves forward,
// the routes are re-verified against it, and the finished snapshot is
// hot-swapped in — queries never block on a rebuild, and the swap
// count is exported as report_store_swaps_total.
//
// The whole chain is traced: each applied journal opens a "mirror"
// trace whose children cover journal read, apply, verification,
// snapshot build, and the hot swap; API requests are sampled into
// "api" traces. Traces are served from /debug/trace/* on the metrics
// address (summary, recent, slowest, topk, and a Perfetto-loadable
// Chrome export). -stale-after and -max-error-rate arm a freshness/SLO
// watchdog that flips /healthz to 503 when the served snapshot goes
// stale or the 5xx rate breaches.
//
// Usage:
//
//	reportd -dumps data/ -rels data/as-rel.txt -routes data/routes.txt -listen 127.0.0.1:8080
//	reportd -import reports.json -listen 127.0.0.1:8080
//	reportd -dumps data/ -rels data/as-rel.txt -routes data/routes.txt -mirror data/journals
//	curl http://127.0.0.1:8080/v1/summary
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

func main() {
	var (
		dumps          = flag.String("dumps", "data", "directory with *.db IRR dumps")
		relsPath       = flag.String("rels", "data/as-rel.txt", "CAIDA-format AS relationship file")
		routesPath     = flag.String("routes", "data/routes.txt", "BGP route dump file")
		importPath     = flag.String("import", "", "serve this `verify -json` report file instead of verifying")
		listen         = flag.String("listen", "127.0.0.1:8080", "API listen address")
		metricsAddr    = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /debug/trace on this address")
		addrFile       = flag.String("addr-file", "", "write the bound api= and metrics= addresses to this file (for scripted smokes)")
		logLevel       = flag.String("log-level", "info", "log level: debug, info, warn, error")
		shardCount     = flag.Int("shards", runtime.GOMAXPROCS(0), "origin-AS shards for the database and verifier, one goroutine each (reports are byte-identical at any count)")
		cacheEntries   = flag.Int("cache-entries", 8192, "response cache capacity (entries; negative disables)")
		pageSize       = flag.Int("page-size", 100, "default page length")
		mirrorDir      = flag.String("mirror", "", "watch this directory for *.nrtm journals; re-verify and hot-swap the store after each applied journal")
		mirrorInterval = flag.Duration("mirror-interval", 2*time.Second, "journal directory poll interval for -mirror")
		fullReverify   = flag.Bool("full-reverify", false, "re-verify every route on every applied journal instead of only the routes the journal's delta can affect")
		reconcileEvery = flag.Int("reconcile-every", 64, "run a full-verification reconciliation pass every N incremental applies, alerting on drift (0 disables)")
		traceSamples   = flag.String("trace-sample", "verify=1024,compile=16,ingest=16,api=64", "per-stage trace sampling as stage=N pairs (1-in-N); unlisted stages trace every operation")
		topK           = flag.Int("topk", 64, "heavy-hitter sketch capacity (slowest routes/ASes, hottest programs)")
		staleAfter     = flag.Duration("stale-after", 0, "degrade /healthz when the served snapshot is older than this (0 disables; try 5x -mirror-interval)")
		maxErrorRate   = flag.Float64("max-error-rate", 0, "degrade /healthz when the windowed 5xx rate exceeds this fraction (0 disables)")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := telemetry.SetupLogger("reportd", level)

	samples, err := trace.ParseSamples(*traceSamples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tracer := trace.New(trace.Config{Sample: samples})
	watchdog := trace.NewWatchdog(trace.WatchdogConfig{
		MaxStaleness: *staleAfter,
		MaxErrorRate: *maxErrorRate,
	})

	reg := telemetry.Default()
	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(reg))...)
	telemetry.RegisterRuntimeMetrics(reg)

	// Swap observes each snapshot's own freeze time into
	// rpslyzer_report_store_build_seconds, so every path below — fresh,
	// import, initial incremental, per-journal — reports it alike.
	store := reportstore.New(reportstore.NewMetrics(reg))
	reg.GaugeFunc("rpslyzer_snapshot_age_seconds",
		"Age of the served report snapshot (-1 before the first swap).",
		func() float64 {
			snap := store.Current()
			if snap == nil {
				return -1
			}
			return time.Since(snap.BuiltAt()).Seconds()
		})
	reg.GaugeFunc("rpslyzer_watchdog_healthy",
		"1 while every armed SLO (staleness, error rate) holds, else 0.",
		func() float64 {
			if watchdog.Status().Health == trace.Healthy {
				return 1
			}
			return 0
		})

	var metricsBound string
	if *metricsAddr != "" {
		ms, err := telemetry.Serve(*metricsAddr, reg,
			telemetry.Mount{Pattern: "/debug/trace/", Handler: tracer.Handler()})
		if err != nil {
			telemetry.Fatal("metrics endpoint failed", "addr", *metricsAddr, "err", err)
		}
		defer ms.Close()
		metricsBound = ms.Addr().String()
		logger.Info("metrics endpoint listening", "addr", metricsBound)
	}

	vcfg := verify.Config{Shards: *shardCount}
	profiler := verify.NewProfiler(*topK)
	profiler.Register(tracer)
	shardMetrics := shard.NewMetrics(reg)

	var (
		rels   *asrel.Database
		routes []bgpsim.Route
	)
	// Pure import mode needs nothing but the report file; everything
	// else (fresh verification, mirror rebuilds) needs the full corpus.
	needCorpus := *importPath == "" || *mirrorDir != ""
	if needCorpus {
		if rels, err = core.LoadRels(*relsPath); err != nil {
			telemetry.Fatal("load relationships failed", "err", err)
		}
		if routes, err = core.LoadRoutes(*routesPath); err != nil {
			telemetry.Fatal("load routes failed", "err", err)
		}
	}

	// rebuild verifies the route corpus against db and publishes the
	// snapshot — the initial build and every mirror-driven refresh.
	// When parent is non-nil (a mirror journal apply) the rebuild spans
	// hang off it, so one trace covers journal-apply → verify → swap.
	rebuild := func(db *irr.Database, parent *trace.Span) {
		t0 := time.Now()
		root := trace.StartOrChild(tracer, parent, "rebuild", "rebuild")
		v := verify.New(db, rels, vcfg)
		v.SetMetrics(verify.NewMetrics(reg))
		v.SetTracer(tracer)
		v.SetProfiler(profiler)
		v.SetShardMetrics(shardMetrics)
		shardMetrics.ObservePlan(db.ShardRouteCounts())
		b := reportstore.NewBuilder()
		vs := root.Child("verify-stream")
		v.VerifyStream(routes, *shardCount, b.Add)
		vs.End()
		sb := root.Child("store-build")
		snap := b.Build()
		sb.End()
		sw := root.Child("swap")
		serial := store.Swap(snap)
		sw.End()
		watchdog.RecordRefresh()
		root.SetInt("routes", int64(snap.NumRoutes())).
			SetInt("checks", int64(snap.NumChecks())).
			SetInt("serial", int64(serial)).
			End()
		logger.Info("store swapped", "serial", serial,
			"routes", snap.NumRoutes(), "checks", snap.NumChecks(),
			"verify_to_swap", time.Since(t0).Round(time.Millisecond))
	}

	var db *irr.Database
	if needCorpus {
		x, _, err := core.LoadDumpDir(*dumps)
		if err != nil {
			telemetry.Fatal("load dumps failed", "err", err)
		}
		db = irr.NewSharded(x, *shardCount)
		shardMetrics.ObservePlan(db.ShardRouteCounts())
	}

	// Mirror mode re-verifies incrementally by default: the dependency
	// graph recorded at compile time invalidates only the programs and
	// routes each journal's delta can affect. Full rebuilds remain for
	// -full-reverify and -import (no engine state to patch).
	incremental := *mirrorDir != "" && *importPath == "" && !*fullReverify
	var inc *verify.Incremental

	if *importPath != "" {
		f, err := os.Open(*importPath)
		if err != nil {
			telemetry.Fatal("open import failed", "path", *importPath, "err", err)
		}
		b := reportstore.NewBuilder()
		err = report.ReadJSONL(f, b.Add)
		f.Close()
		if err != nil {
			telemetry.Fatal("import failed", "path", *importPath, "err", err)
		}
		snap := b.Build()
		store.Swap(snap)
		watchdog.RecordRefresh()
		logger.Info("imported reports", "path", *importPath,
			"routes", snap.NumRoutes(), "checks", snap.NumChecks())
	} else if incremental {
		inc, err = verify.NewIncremental(db, rels, vcfg)
		if err != nil {
			telemetry.Fatal("incremental engine failed", "err", err)
		}
		inc.Verifier().SetMetrics(verify.NewMetrics(reg))
		inc.Verifier().SetTracer(tracer)
		inc.Verifier().SetProfiler(profiler)
		inc.Verifier().SetShardMetrics(shardMetrics)
		reg.GaugeFunc("rpslyzer_depgraph_programs",
			"Compiled programs registered in the dependency graph.",
			func() float64 { return float64(inc.GraphStats().Programs) })
		reg.GaugeFunc("rpslyzer_depgraph_keys",
			"Distinct dependency keys with at least one dependent program.",
			func() float64 { return float64(inc.GraphStats().Keys) })
		reg.GaugeFunc("rpslyzer_depgraph_edges",
			"Total (key, program) dependency edges.",
			func() float64 { return float64(inc.GraphStats().Edges) })
		t0 := time.Now()
		root := tracer.Start("rebuild", "initial-verify")
		inc.Init(routes, *shardCount)
		snap := reportstore.BuildSnapshot(inc.Reports())
		serial := store.Swap(snap)
		watchdog.RecordRefresh()
		if root != nil {
			root.SetInt("routes", int64(snap.NumRoutes())).SetInt("serial", int64(serial)).End()
		}
		stats := inc.GraphStats()
		logger.Info("store swapped", "serial", serial,
			"routes", snap.NumRoutes(), "checks", snap.NumChecks(),
			"depgraph_programs", stats.Programs, "depgraph_edges", stats.Edges,
			"verify_to_swap", time.Since(t0).Round(time.Millisecond))
	} else {
		rebuild(db, nil)
	}

	var stopMirror chan struct{}
	if *mirrorDir != "" {
		mir := nrtm.NewMirrorDB(db, nil, nrtm.NewMetrics(reg))
		stopMirror = make(chan struct{})
		dumpDir := *dumps

		// applyDelta patches the incremental engine and hot-swaps the
		// store after each applied journal. Poll serializes calls, so the
		// engine never races itself; readers only ever see the immutable
		// snapshots swapped in below.
		var applyDelta func(db *irr.Database, touched []depgraph.Key, parent *trace.Span)
		if inc != nil {
			rm := newReverifyMetrics(reg)
			applies := 0
			applyDelta = func(db *irr.Database, touched []depgraph.Key, parent *trace.Span) {
				t0 := time.Now()
				shardMetrics.ObservePlan(db.ShardRouteCounts())
				root := trace.StartOrChild(tracer, parent, "rebuild", "reverify")
				res := inc.Reverify(db, touched, *shardCount, root)
				rm.routes.Add(int64(res.Routes))
				rm.programs.Add(int64(len(res.Programs)))
				if res.Full {
					rm.full.Inc()
				}
				rm.patched.Add(int64(res.Patched))
				rm.lastRoutes.Set(int64(res.Routes))
				rm.lastPrograms.Set(int64(len(res.Programs)))
				rm.lastKeys.Set(int64(res.TouchedKeys))
				rm.lastPatched.Set(int64(res.Patched))
				rm.seconds.Observe(res.Duration.Seconds())
				applies++
				if *reconcileEvery > 0 && !res.Full && applies%*reconcileEvery == 0 {
					rc := root.Child("reconcile")
					rec := inc.Reconcile(*shardCount)
					rc.SetInt("drift", int64(rec.Drift)).End()
					rm.reconciles.Inc()
					rm.drift.Add(int64(rec.Drift))
					if rec.Drift > 0 {
						logger.Error("reconcile drift: incremental reports diverged from full verification",
							"drift", rec.Drift, "routes", rec.Routes)
					} else {
						logger.Info("reconcile clean", "routes", rec.Routes,
							"took", rec.Duration.Round(time.Millisecond))
					}
				}
				sb := root.Child("store-build")
				snap := reportstore.BuildSnapshot(inc.Reports())
				sb.End()
				sw := root.Child("swap")
				serial := store.Swap(snap)
				sw.End()
				watchdog.RecordRefresh()
				root.SetInt("keys", int64(res.TouchedKeys)).
					SetInt("programs", int64(len(res.Programs))).
					SetInt("routes_reverified", int64(res.Routes)).
					SetInt("serial", int64(serial)).
					End()
				logger.Info("store swapped", "serial", serial,
					"keys", res.TouchedKeys, "programs_invalidated", len(res.Programs),
					"routes_reverified", res.Routes, "routes_patched", res.Patched,
					"full", res.Full,
					"apply_to_swap", time.Since(t0).Round(time.Millisecond))
			}
		}

		go nrtm.Poll(mir, nrtm.PollConfig{
			JournalDir: *mirrorDir,
			Interval:   *mirrorInterval,
			Logger:     logger,
			Tracer:     tracer,
			Reload: func() (*ir.IR, error) {
				x, _, err := core.LoadDumpDir(dumpDir)
				return x, err
			},
			OnSwap:  rebuild,
			OnDelta: applyDelta,
		}, stopMirror)
	}

	srv := api.NewServer(store, api.Config{
		CacheEntries: *cacheEntries,
		PageSize:     *pageSize,
		Tracer:       tracer,
		Watchdog:     watchdog,
	}, api.NewMetrics(reg))
	if err := srv.Listen(*listen); err != nil {
		telemetry.Fatal("listen failed", "addr", *listen, "err", err)
	}
	if *addrFile != "" {
		contents := fmt.Sprintf("api=%s\nmetrics=%s\n", srv.Addr().String(), metricsBound)
		if err := os.WriteFile(*addrFile, []byte(contents), 0o644); err != nil {
			telemetry.Fatal("write addr file failed", "path", *addrFile, "err", err)
		}
	}
	snap := store.Current()
	logger.Info("serving",
		"addr", srv.Addr().String(), "ases", len(snap.ASNs()),
		"routes", snap.NumRoutes(), "checks", snap.NumChecks())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if stopMirror != nil {
		close(stopMirror)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		telemetry.Fatal("shutdown failed", "err", err)
	}
	logger.Info("drained and stopped")
}

// reverifyMetrics exports the incremental engine's per-apply freshness:
// how much work each journal cost and whether reconciliation ever
// caught drift.
type reverifyMetrics struct {
	routes     *telemetry.Counter
	patched    *telemetry.Counter
	programs   *telemetry.Counter
	full       *telemetry.Counter
	reconciles *telemetry.Counter
	drift      *telemetry.Counter

	lastRoutes   *telemetry.Gauge
	lastPrograms *telemetry.Gauge
	lastKeys     *telemetry.Gauge
	lastPatched  *telemetry.Gauge

	seconds *telemetry.Histogram
}

func newReverifyMetrics(reg *telemetry.Registry) *reverifyMetrics {
	return &reverifyMetrics{
		routes: reg.Counter("rpslyzer_reverify_routes_total",
			"Routes re-verified by incremental applies."),
		patched: reg.Counter("rpslyzer_reverify_patched_total",
			"Routes updated by check-level patching rather than full re-verification."),
		programs: reg.Counter("rpslyzer_reverify_programs_invalidated_total",
			"Compiled programs invalidated by incremental applies."),
		full: reg.Counter("rpslyzer_reverify_full_total",
			"Applies that fell back to a full re-verification (resyncs)."),
		reconciles: reg.Counter("rpslyzer_reverify_reconciles_total",
			"Full-verification reconciliation passes run."),
		drift: reg.Counter("rpslyzer_reverify_reconcile_drift_total",
			"Routes whose incremental report diverged from a reconciliation pass (should stay 0)."),
		lastRoutes: reg.Gauge("rpslyzer_reverify_last_routes",
			"Routes re-verified by the most recent apply."),
		lastPrograms: reg.Gauge("rpslyzer_reverify_last_programs",
			"Programs invalidated by the most recent apply."),
		lastKeys: reg.Gauge("rpslyzer_reverify_last_keys",
			"Touched dependency keys in the most recent apply."),
		lastPatched: reg.Gauge("rpslyzer_reverify_last_patched",
			"Routes patched (not fully re-verified) by the most recent apply."),
		seconds: reg.Histogram("rpslyzer_reverify_seconds",
			"Incremental re-verification latency per applied journal.", telemetry.DurationBuckets),
	}
}
