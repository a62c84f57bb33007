// Command reportd serves verification reports over HTTP: it loads IRR
// dumps, an AS-relationship file, and a BGP route dump, verifies every
// route, indexes the per-check results into an immutable snapshot, and
// answers operator queries (per-AS reports, originated routes,
// filtered report pages, reverse lookups) from an LRU-cached JSON API.
//
// With -import it skips verification and serves a report file written
// by `verify -json`. With -mirror it watches an NRTM journal
// directory: after each applied journal the database moves forward,
// the routes the journal's delta can reach are re-verified against it,
// and the finished snapshot is hot-swapped in — queries never block on
// a rebuild, and the swap count is exported as
// report_store_swaps_total. The two exclude each other: an imported
// report file carries no engine state for a journal to patch.
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
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rpslyzer/internal/api"
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

// flags is reportd's command line.
type flags struct {
	dumps, rels, routes, importPath string
	listen, metricsAddr, addrFile   string
	logLevel, traceSamples          string
	shards, cacheEntries, pageSize  int
	mirrorDir                       string
	mirrorInterval                  time.Duration
	reconcileEvery, topK            int
	staleAfter                      time.Duration
	maxErrorRate                    float64
}

func parseFlags(args []string) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet("reportd", flag.ContinueOnError)
	fs.StringVar(&f.dumps, "dumps", "data", "directory with *.db IRR dumps")
	fs.StringVar(&f.rels, "rels", "data/as-rel.txt", "CAIDA-format AS relationship file")
	fs.StringVar(&f.routes, "routes", "data/routes.txt", "BGP route dump file")
	fs.StringVar(&f.importPath, "import", "", "serve this `verify -json` report file instead of verifying (excludes -mirror)")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:8080", "API listen address")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof, and /debug/trace on this address")
	fs.StringVar(&f.addrFile, "addr-file", "", "write the bound api= and metrics= addresses to this file (for scripted smokes)")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.IntVar(&f.shards, "shards", runtime.GOMAXPROCS(0), "origin-AS shards for the database and verifier, one goroutine each (reports are byte-identical at any count)")
	fs.IntVar(&f.cacheEntries, "cache-entries", 8192, "response cache capacity (entries; negative disables)")
	fs.IntVar(&f.pageSize, "page-size", 100, "default page length")
	fs.StringVar(&f.mirrorDir, "mirror", "", "watch this directory for *.nrtm journals; re-verify what each applied journal can affect and hot-swap the store")
	fs.DurationVar(&f.mirrorInterval, "mirror-interval", 2*time.Second, "journal directory poll interval for -mirror")
	fs.IntVar(&f.reconcileEvery, "reconcile-every", 64, "run a full-verification reconciliation pass every N incremental applies, alerting on drift (0 disables)")
	fs.StringVar(&f.traceSamples, "trace-sample", "verify=1024,compile=16,ingest=16,api=64", "per-stage trace sampling as stage=N pairs (1-in-N); unlisted stages trace every operation")
	fs.IntVar(&f.topK, "topk", 64, "heavy-hitter sketch capacity (slowest routes/ASes, hottest programs)")
	fs.DurationVar(&f.staleAfter, "stale-after", 0, "degrade /healthz when the served snapshot is older than this (0 disables; try 5x -mirror-interval)")
	fs.Float64Var(&f.maxErrorRate, "max-error-rate", 0, "degrade /healthz when the windowed 5xx rate exceeds this fraction (0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if f.importPath != "" && f.mirrorDir != "" {
		// Reported where the flag package reports its own parse errors.
		err := errors.New("-import and -mirror exclude each other: an imported report file has no engine state for a journal to patch")
		fmt.Fprintln(fs.Output(), err)
		return nil, err
	}
	return f, nil
}

// daemon is the one path from dumps on disk (or an imported report
// file) to a served snapshot: boot publishes the first snapshot, step
// every later one, and publish is the only place the store is swapped.
type daemon struct {
	f        *flags
	logger   *slog.Logger
	reg      *telemetry.Registry
	tracer   *trace.Tracer
	watchdog *trace.Watchdog
	store    *reportstore.Store

	shardMetrics *shard.Metrics
	rm           *reverifyMetrics

	// db and inc are the booted database and the engine over it. Only
	// -mirror keeps them: any other run drops both after its first
	// publish, and -import never has them.
	db      *irr.Database
	inc     *verify.Incremental
	applies int
}

func newDaemon(f *flags, logger *slog.Logger, reg *telemetry.Registry, tracer *trace.Tracer, watchdog *trace.Watchdog) *daemon {
	// Swap observes each snapshot's own freeze time into
	// rpslyzer_report_store_build_seconds, so every publish — fresh,
	// import, per-journal — reports it alike.
	d := &daemon{f: f, logger: logger, reg: reg, tracer: tracer, watchdog: watchdog,
		store:        reportstore.New(reportstore.NewMetrics(reg)),
		shardMetrics: shard.NewMetrics(reg),
	}
	reg.GaugeFunc("rpslyzer_snapshot_age_seconds",
		"Age of the served report snapshot (-1 before the first swap).",
		func() float64 {
			snap := d.store.Current()
			if snap == nil {
				return -1
			}
			return time.Since(snap.BuiltAt()).Seconds()
		})
	return d
}

// boot publishes the first snapshot: the imported report file, or the
// whole corpus verified through the engine every later step patches.
func (d *daemon) boot() error {
	t0 := time.Now()
	if d.f.importPath != "" {
		f, err := os.Open(d.f.importPath)
		if err != nil {
			return fmt.Errorf("open import: %w", err)
		}
		defer f.Close()
		b := reportstore.NewBuilder()
		if err := report.ReadJSONL(f, b.Add); err != nil {
			return fmt.Errorf("import %s: %w", d.f.importPath, err)
		}
		d.publish(b.Build(), nil, t0, "imported", d.f.importPath)
		return nil
	}

	rels, err := core.LoadRels(d.f.rels)
	if err != nil {
		return fmt.Errorf("load relationships: %w", err)
	}
	routes, err := core.LoadRoutes(d.f.routes)
	if err != nil {
		return fmt.Errorf("load routes: %w", err)
	}
	x, _, err := core.LoadDumpDir(d.f.dumps)
	if err != nil {
		return fmt.Errorf("load dumps: %w", err)
	}
	db := irr.NewSharded(x, d.f.shards)
	d.shardMetrics.ObservePlan(db.ShardRouteCounts())

	inc, err := verify.NewIncremental(db, rels, verify.Config{Shards: d.f.shards})
	if err != nil {
		return fmt.Errorf("verification engine: %w", err)
	}
	profiler := verify.NewProfiler(d.f.topK)
	profiler.Register(d.tracer)
	inc.Verifier().SetMetrics(verify.NewMetrics(d.reg))
	inc.Verifier().SetTracer(d.tracer)
	inc.Verifier().SetProfiler(profiler)
	inc.Verifier().SetShardMetrics(d.shardMetrics)

	t0 = time.Now()
	root := d.tracer.Start("rebuild", "initial-verify")
	inc.Init(routes, d.f.shards)
	stats := inc.GraphStats()
	d.publish(reportstore.BuildSnapshot(inc.Reports()), root, t0,
		"depgraph_programs", stats.Programs, "depgraph_edges", stats.Edges)
	root.End()

	if d.f.mirrorDir == "" {
		return nil
	}
	d.db, d.inc, d.rm = db, inc, newReverifyMetrics(d.reg)
	d.reg.GaugeFunc("rpslyzer_depgraph_programs",
		"Compiled programs registered in the dependency graph.",
		func() float64 { return float64(inc.GraphStats().Programs) })
	d.reg.GaugeFunc("rpslyzer_depgraph_keys",
		"Distinct dependency keys with at least one dependent program.",
		func() float64 { return float64(inc.GraphStats().Keys) })
	d.reg.GaugeFunc("rpslyzer_depgraph_edges",
		"Total (key, program) dependency edges.",
		func() float64 { return float64(inc.GraphStats().Edges) })
	return nil
}

// step is the nrtm.Poll hook: it moves the engine to db, re-verifying
// what keys can reach (everything when keys is nil, after a resync),
// and publishes the patched reports. Poll serializes calls, so the
// engine never races itself; readers only ever see the immutable
// snapshots publish swaps in. parent, when non-nil, is the enclosing
// journal-apply span, so one trace covers journal-apply → verify → swap.
func (d *daemon) step(db *irr.Database, keys []depgraph.Key, parent *trace.Span) {
	t0 := time.Now()
	d.shardMetrics.ObservePlan(db.ShardRouteCounts())
	root := trace.StartOrChild(d.tracer, parent, "rebuild", "reverify")
	res := d.inc.Reverify(db, keys, d.f.shards, root)
	rm := d.rm
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
	d.applies++
	if d.f.reconcileEvery > 0 && !res.Full && d.applies%d.f.reconcileEvery == 0 {
		rc := root.Child("reconcile")
		rec := d.inc.Reconcile(d.f.shards)
		rc.SetInt("drift", int64(rec.Drift)).End()
		rm.reconciles.Inc()
		rm.drift.Add(int64(rec.Drift))
		if rec.Drift > 0 {
			d.logger.Error("reconcile drift: incremental reports diverged from full verification",
				"drift", rec.Drift, "routes", rec.Routes)
		} else {
			d.logger.Info("reconcile clean", "routes", rec.Routes,
				"took", rec.Duration.Round(time.Millisecond))
		}
	}
	sb := root.Child("store-build")
	snap := reportstore.BuildSnapshot(d.inc.Reports())
	sb.End()
	root.SetInt("keys", int64(res.TouchedKeys)).
		SetInt("programs", int64(len(res.Programs))).
		SetInt("routes_reverified", int64(res.Routes))
	d.publish(snap, root, t0,
		"keys", res.TouchedKeys, "programs_invalidated", len(res.Programs),
		"routes_reverified", res.Routes, "routes_patched", res.Patched, "full", res.Full)
	root.End()
}

// publish swaps snap in under a "swap" child of root and logs it with
// the caller's fields.
func (d *daemon) publish(snap *reportstore.Snapshot, root *trace.Span, t0 time.Time, fields ...any) {
	sw := root.Child("swap")
	serial := d.store.Swap(snap)
	sw.End()
	d.watchdog.RecordRefresh()
	root.SetInt("routes", int64(snap.NumRoutes())).
		SetInt("checks", int64(snap.NumChecks())).
		SetInt("serial", int64(serial))
	d.logger.Info("store swapped", append([]any{"serial", serial,
		"routes", snap.NumRoutes(), "checks", snap.NumChecks(),
		"to_swap", time.Since(t0).Round(time.Millisecond)}, fields...)...)
}

func main() {
	f, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	} else if err != nil {
		os.Exit(2) // parseFlags has said why
	}
	level, err := telemetry.ParseLevel(f.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := telemetry.SetupLogger("reportd", level)

	samples, err := trace.ParseSamples(f.traceSamples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tracer := trace.New(trace.Config{Sample: samples})
	watchdog := trace.NewWatchdog(trace.WatchdogConfig{
		MaxStaleness: f.staleAfter,
		MaxErrorRate: f.maxErrorRate,
	})

	reg := telemetry.Default()
	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(reg))...)
	telemetry.RegisterRuntimeMetrics(reg)
	reg.GaugeFunc("rpslyzer_watchdog_healthy",
		"1 while every armed SLO (staleness, error rate) holds, else 0.",
		func() float64 {
			if watchdog.Status().Health == trace.Healthy {
				return 1
			}
			return 0
		})

	var metricsBound string
	if f.metricsAddr != "" {
		ms, err := telemetry.Serve(f.metricsAddr, reg,
			telemetry.Mount{Pattern: "/debug/trace/", Handler: tracer.Handler()})
		if err != nil {
			telemetry.Fatal("metrics endpoint failed", "addr", f.metricsAddr, "err", err)
		}
		defer ms.Close()
		metricsBound = ms.Addr().String()
		logger.Info("metrics endpoint listening", "addr", metricsBound)
	}

	d := newDaemon(f, logger, reg, tracer, watchdog)
	if err := d.boot(); err != nil {
		telemetry.Fatal("start-up failed", "err", err)
	}

	var stopMirror chan struct{}
	if f.mirrorDir != "" {
		stopMirror = make(chan struct{})
		go nrtm.Poll(nrtm.NewMirrorDB(d.db, nil, nrtm.NewMetrics(reg)), nrtm.PollConfig{
			JournalDir: f.mirrorDir,
			Interval:   f.mirrorInterval,
			Logger:     logger,
			Tracer:     tracer,
			Reload: func() (*ir.IR, error) {
				x, _, err := core.LoadDumpDir(f.dumps)
				return x, err
			},
			OnApply: d.step,
		}, stopMirror)
	}

	srv := api.NewServer(d.store, api.Config{
		CacheEntries: f.cacheEntries,
		PageSize:     f.pageSize,
		Tracer:       tracer,
		Watchdog:     watchdog,
	}, api.NewMetrics(reg))
	if err := srv.Listen(f.listen); err != nil {
		telemetry.Fatal("listen failed", "addr", f.listen, "err", err)
	}
	if f.addrFile != "" {
		contents := fmt.Sprintf("api=%s\nmetrics=%s\n", srv.Addr().String(), metricsBound)
		if err := os.WriteFile(f.addrFile, []byte(contents), 0o644); err != nil {
			telemetry.Fatal("write addr file failed", "path", f.addrFile, "err", err)
		}
	}
	snap := d.store.Current()
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
