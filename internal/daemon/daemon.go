// Package daemon is what reportd and whoisd are besides their flags and
// their listener. Process is the scaffolding of both: logger, tracer,
// metrics endpoint, the one nrtm.Poll loop, the signal wait. Engine is
// the one path from a corpus to a served report snapshot and from a
// journal to the next; `verify -changed` uses it too.
//
// A span opened around a call that BENCHMARK.json lists as a per_layer
// `<layer>_s` row is named <layer> (core.load_dumps, verify.reverify,
// reportstore.swap, ...), so a production trace and a bench row compare
// line for line; every other span has an undotted name.
package daemon

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

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

// Process is one daemon's logger, tracer, metrics and mirror loop. Start
// builds the one a `main` runs with; a test fills the exported fields.
type Process struct {
	Logger   *slog.Logger
	Registry *telemetry.Registry
	Tracer   *trace.Tracer
	// MetricsAddr is the bound -metrics-addr, "" without one.
	MetricsAddr string

	metrics    *telemetry.MetricsServer
	stop, done chan struct{}
}

// Start is the prologue of a daemon's main: the slog default at
// logLevel, a tracer sampling as traceSamples (-trace-sample) says,
// build info and runtime metrics on the default registry and, with a
// metricsAddr, the metrics endpoint with /debug/trace/ mounted. A bad
// level or sample spec exits 2, an address that cannot be bound 1.
func Start(name, logLevel, traceSamples, metricsAddr string) *Process {
	level, lerr := telemetry.ParseLevel(logLevel)
	samples, serr := trace.ParseSamples(traceSamples)
	if err := errors.Join(lerr, serr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := &Process{
		Logger:   telemetry.SetupLogger(name, level),
		Registry: telemetry.Default(),
		Tracer:   trace.New(trace.Config{Sample: samples}),
	}
	p.Logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(p.Registry))...)
	telemetry.RegisterRuntimeMetrics(p.Registry)
	if metricsAddr != "" {
		ms, err := telemetry.Serve(metricsAddr, p.Registry,
			telemetry.Mount{Pattern: "/debug/trace/", Handler: p.Tracer.Handler()})
		if err != nil {
			telemetry.Fatal("metrics endpoint failed", "addr", metricsAddr, "err", err)
		}
		p.metrics, p.MetricsAddr = ms, ms.Addr().String()
		p.Logger.Info("metrics endpoint listening", "addr", p.MetricsAddr)
	}
	return p
}

// BootSpan opens the root span of a start-up trace: every layer from the
// files on disk to what the daemon first serves hangs off it.
func (p *Process) BootSpan() *trace.Span { return p.Tracer.Start("rebuild", "boot") }

// LoadDB is the start-up both daemons share, under root: the dumps in
// dir parsed as opts says, then indexed into shards origin-AS shards.
func LoadDB(root *trace.Span, dir string, shards int, opts core.LoadOptions) (*irr.Database, error) {
	sp := root.Child("core.load_dumps")
	x, _, err := core.LoadDumpDirOpts(dir, opts)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("load dumps: %w", err)
	}
	sp = root.Child("irr.index")
	db := irr.NewSharded(x, shards)
	sp.End()
	return db, nil
}

// ObservePlan exports how db's routes fall over its origin-AS shards.
func (p *Process) ObservePlan(db *irr.Database) {
	shard.NewMetrics(p.Registry).ObservePlan(db.ShardRouteCounts())
}

// Mirror starts the process's mirror loop: nrtm.Poll over a mirror of
// db, watching dir every interval and reloading dumps when a serial gap
// or a corrupt journal forces a resync. hook is Poll's OnApply, called
// on the loop's goroutine one journal at a time. Stop ends the loop.
func (p *Process) Mirror(db *irr.Database, dumps, dir string, interval time.Duration,
	hook func(*irr.Database, []depgraph.Key, *trace.Span)) *nrtm.Mirror {
	mir := nrtm.NewMirrorDB(db, nil, nrtm.NewMetrics(p.Registry))
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(p.done)
		nrtm.Poll(mir, nrtm.PollConfig{
			JournalDir: dir, Interval: interval,
			Logger: p.Logger, Tracer: p.Tracer,
			Reload: func() (*ir.IR, error) {
				x, _, err := core.LoadDumpDir(dumps)
				return x, err
			},
			OnApply: hook,
		}, p.stop)
	}()
	return mir
}

// MirrorDB is Mirror for a daemon serving the database itself: swap
// publishes each new one, the result reports the mirror's serials.
func (p *Process) MirrorDB(db *irr.Database, dumps, dir string, interval time.Duration,
	swap func(*irr.Database)) func() map[string]uint64 {
	return p.Mirror(db, dumps, dir, interval, func(db *irr.Database, _ []depgraph.Key, _ *trace.Span) {
		swap(db)
		p.ObservePlan(db)
	}).Serials
}

// Wait blocks until SIGINT or SIGTERM, then stops the process.
func (p *Process) Wait() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	p.Stop()
}

// Stop ends the mirror loop, a step in flight first, and the endpoint.
func (p *Process) Stop() {
	if p.stop != nil {
		close(p.stop)
		<-p.done
	}
	if p.metrics != nil {
		p.metrics.Close()
	}
}

// Engine is the one path to a served report snapshot: Import, Boot or
// BootCorpus publishes the first one, Step every later one, and
// publish is the only place the store is swapped.
type Engine struct {
	// ReconcileEvery is reportd's -reconcile-every: steps between
	// reconciliation passes (0: none).
	ReconcileEvery int

	p        *Process
	watchdog *trace.Watchdog
	store    *reportstore.Store
	shardM   *shard.Metrics
	rm       *reverifyMetrics

	// The booted database and the verification engine over it, stepped
	// by shards workers: kept only by a boot told that a mirror follows.
	db              *irr.Database
	inc             *verify.Incremental
	shards, applies int
}

// NewEngine returns an engine with an empty store; watchdog may be nil.
func NewEngine(p *Process, watchdog *trace.Watchdog) *Engine {
	// Swap observes each snapshot's freeze time into the store metrics,
	// so every publish — fresh, import, per-journal — reports it alike.
	e := &Engine{p: p, watchdog: watchdog, shardM: shard.NewMetrics(p.Registry),
		store: reportstore.New(reportstore.NewMetrics(p.Registry))}
	p.Registry.GaugeFunc("rpslyzer_snapshot_age_seconds",
		"Age of the served report snapshot (-1 before the first swap).",
		func() float64 {
			snap := e.store.Current()
			if snap == nil {
				return -1
			}
			return time.Since(snap.BuiltAt()).Seconds()
		})
	p.Registry.GaugeFunc("rpslyzer_watchdog_healthy",
		"1 while every armed SLO (staleness, error rate) holds, else 0.",
		func() float64 {
			if watchdog.Status().Health == trace.Healthy {
				return 1
			}
			return 0
		})
	return e
}

// Store is what the engine publishes into: serve it with api.NewServer.
func (e *Engine) Store() *reportstore.Store { return e.store }

// Incremental is the verification engine a mirror boot kept, else nil.
func (e *Engine) Incremental() *verify.Incremental { return e.inc }

// Import publishes a report file written by `verify -json`.
func (e *Engine) Import(path string) error {
	t0 := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open import: %w", err)
	}
	defer f.Close()
	b := reportstore.NewBuilder()
	if err := report.ReadJSONL(f, b.Add); err != nil {
		return fmt.Errorf("import %s: %w", path, err)
	}
	e.publish(b.Build(), nil, t0, "imported", path)
	return nil
}

// Boot is BootCorpus over the corpus loaded from its files, the dumps
// indexed into shards origin-AS shards, in one trace: its root runs
// from the files on disk to the swapped snapshot.
func (e *Engine) Boot(dumps, relsPath, routesPath string, shards int, mirror bool) error {
	t0 := time.Now()
	root := e.p.BootSpan()
	defer root.End()
	sp := root.Child("core.load_rels")
	rels, err := core.LoadRels(relsPath)
	sp.End()
	if err != nil {
		return fmt.Errorf("load relationships: %w", err)
	}
	sp = root.Child("core.load_routes")
	routes, err := core.LoadRoutes(routesPath)
	sp.End()
	if err != nil {
		return fmt.Errorf("load routes: %w", err)
	}
	db, err := LoadDB(root, dumps, shards, core.LoadOptions{})
	if err != nil {
		return err
	}
	return e.bootCorpus(root, t0, db, rels, routes, verify.Config{Shards: shards}, mirror)
}

// BootCorpus publishes the first snapshot of a corpus in memory: every
// route verified, by cfg.Shards workers, through the engine each later
// Step patches — dropped after the publish unless mirror says steps follow.
func (e *Engine) BootCorpus(db *irr.Database, rels *asrel.Database, routes []bgpsim.Route, cfg verify.Config, mirror bool) error {
	root := e.p.BootSpan()
	defer root.End()
	return e.bootCorpus(root, time.Now(), db, rels, routes, cfg, mirror)
}

func (e *Engine) bootCorpus(root *trace.Span, t0 time.Time, db *irr.Database, rels *asrel.Database, routes []bgpsim.Route, cfg verify.Config, mirror bool) error {
	e.shardM.ObservePlan(db.ShardRouteCounts())
	sp := root.Child("verify.init")
	inc, err := verify.NewIncremental(db, rels, cfg)
	if err != nil {
		sp.End()
		return fmt.Errorf("verification engine: %w", err)
	}
	profiler := verify.NewProfiler(64) // keys per heavy-hitter sketch
	profiler.Register(e.p.Tracer)
	inc.Verifier().SetMetrics(verify.NewMetrics(e.p.Registry))
	inc.Verifier().SetTracer(e.p.Tracer)
	inc.Verifier().SetProfiler(profiler)
	inc.Verifier().SetShardMetrics(e.shardM)
	inc.Init(routes, cfg.Shards)
	sp.End()

	stats := inc.GraphStats()
	sp = root.Child("reportstore.build")
	snap := reportstore.BuildSnapshot(inc.Reports())
	sp.End()
	e.publish(snap, root, t0, "depgraph_programs", stats.Programs, "depgraph_edges", stats.Edges)

	if !mirror {
		return nil
	}
	e.db, e.inc, e.shards, e.rm = db, inc, cfg.Shards, newReverifyMetrics(e.p.Registry)
	e.p.Registry.GaugeFunc("rpslyzer_depgraph_programs",
		"Compiled programs registered in the dependency graph.",
		func() float64 { return float64(inc.GraphStats().Programs) })
	e.p.Registry.GaugeFunc("rpslyzer_depgraph_keys",
		"Distinct dependency keys with at least one dependent program.",
		func() float64 { return float64(inc.GraphStats().Keys) })
	e.p.Registry.GaugeFunc("rpslyzer_depgraph_edges",
		"Total (key, program) dependency edges.",
		func() float64 { return float64(inc.GraphStats().Edges) })
	return nil
}

// Mirror starts the process's mirror loop with Step as its hook.
func (e *Engine) Mirror(dumps, dir string, interval time.Duration) {
	e.p.Mirror(e.db, dumps, dir, interval,
		func(db *irr.Database, keys []depgraph.Key, sp *trace.Span) { e.Step(db, keys, sp) })
}

// Step is the nrtm.Poll hook: it moves the engine to db, re-verifying
// what keys can reach (everything when keys is nil, after a resync),
// and publishes the patched reports. Poll serializes calls, so the
// engine never races itself; readers only ever see the immutable
// snapshots publish swaps in. parent, when non-nil, is the enclosing
// journal-apply span, so one trace covers journal-apply → verify → swap.
func (e *Engine) Step(db *irr.Database, keys []depgraph.Key, parent *trace.Span) verify.ReverifyResult {
	t0 := time.Now()
	e.shardM.ObservePlan(db.ShardRouteCounts())
	root := trace.StartOrChild(e.p.Tracer, parent, "rebuild", "step")
	sp := root.Child("verify.reverify")
	res := e.inc.Reverify(db, keys, e.shards, sp)
	sp.End()
	rm := e.rm
	rm.routes.Add(int64(res.Routes))
	rm.programs.Add(int64(len(res.Programs)))
	if res.Full {
		rm.full.Inc()
	}
	rm.patched.Add(int64(res.Patched))
	rm.seconds.Observe(res.Duration.Seconds())
	e.applies++
	if e.ReconcileEvery > 0 && !res.Full && e.applies%e.ReconcileEvery == 0 {
		rc := root.Child("reconcile")
		rec := e.inc.Reconcile(e.shards)
		rc.SetInt("drift", int64(rec.Drift)).End()
		rm.reconciles.Inc()
		rm.drift.Add(int64(rec.Drift))
		if rec.Drift > 0 {
			e.p.Logger.Error("reconcile drift: incremental reports diverged from full verification",
				"drift", rec.Drift, "routes", rec.Routes)
		} else {
			e.p.Logger.Info("reconcile clean", "routes", rec.Routes,
				"took", rec.Duration.Round(time.Millisecond))
		}
	}
	sp = root.Child("reportstore.build")
	snap := reportstore.BuildSnapshot(e.inc.Reports())
	sp.End()
	root.SetInt("keys", int64(res.TouchedKeys)).
		SetInt("programs", int64(len(res.Programs))).
		SetInt("routes_reverified", int64(res.Routes))
	e.publish(snap, root, t0,
		"keys", res.TouchedKeys, "programs_invalidated", len(res.Programs),
		"routes_reverified", res.Routes, "routes_patched", res.Patched, "full", res.Full)
	root.End()
	return res
}

// publish swaps snap in under a reportstore.swap child of root and logs
// it; to_swap is the time since t0, where the boot or step began.
func (e *Engine) publish(snap *reportstore.Snapshot, root *trace.Span, t0 time.Time, fields ...any) {
	sw := root.Child("reportstore.swap")
	serial := e.store.Swap(snap)
	sw.End()
	e.watchdog.RecordRefresh()
	root.SetInt("routes", int64(snap.NumRoutes())).
		SetInt("checks", int64(snap.NumChecks())).
		SetInt("serial", int64(serial))
	e.p.Logger.Info("store swapped", append([]any{"serial", serial,
		"routes", snap.NumRoutes(), "checks", snap.NumChecks(),
		"to_swap", time.Since(t0).Round(time.Millisecond)}, fields...)...)
}

// reverifyMetrics exports what each journal cost the incremental engine
// and whether reconciliation ever caught drift.
type reverifyMetrics struct {
	routes, patched, programs, full, reconciles, drift *telemetry.Counter
	seconds                                            *telemetry.Histogram
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
		seconds: reg.Histogram("rpslyzer_reverify_seconds",
			"Incremental re-verification latency per applied journal.", telemetry.DurationBuckets),
	}
}
