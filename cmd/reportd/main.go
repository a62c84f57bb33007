// Command reportd serves verification reports over HTTP: operator
// queries (per-AS reports, originated routes, filtered report pages,
// reverse lookups) answered from an LRU-cached JSON API over an
// immutable snapshot of every route's checks.
//
// This file is the command line and the API listener; the rest is
// internal/daemon. Its Engine verifies the corpus named by -dumps,
// -rels and -routes (or reads the `verify -json` file named by
// -import) into the first snapshot and, with -mirror, re-verifies what
// each applied NRTM journal can affect and hot-swaps the next one in.
// Its Process is the logger, the tracer and the metrics endpoint with
// /debug/trace/*. -stale-after and -max-error-rate arm the watchdog
// that turns /healthz 503 on a stale snapshot or a breached 5xx rate.
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
	"os"
	"runtime"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
)

// flags is reportd's command line.
type flags struct {
	dumps, rels, routes, importPath, mirrorDir            string
	listen, metricsAddr, addrFile, logLevel, traceSamples string
	shards, reconcileEvery                                int
	mirrorInterval                                        time.Duration
	api                                                   api.Config
	slo                                                   trace.WatchdogConfig
}

func parseFlags(args []string) (*flags, error) {
	f := &flags{}
	fs := flag.NewFlagSet("reportd", flag.ExitOnError) // -h exits 0, a bad flag 2
	fs.StringVar(&f.dumps, "dumps", "data", "directory with *.db IRR dumps")
	fs.StringVar(&f.rels, "rels", "data/as-rel.txt", "CAIDA-format AS relationship file")
	fs.StringVar(&f.routes, "routes", "data/routes.txt", "BGP route dump file")
	fs.StringVar(&f.importPath, "import", "", "serve this `verify -json` report file instead of verifying (excludes -mirror)")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:8080", "API listen address")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/pprof, and /debug/trace on this address")
	fs.StringVar(&f.addrFile, "addr-file", "", "write the bound api= and metrics= addresses to this file (for scripted smokes)")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.IntVar(&f.shards, "shards", runtime.GOMAXPROCS(0), "origin-AS shards for the database and verifier, one goroutine each (reports are byte-identical at any count)")
	fs.IntVar(&f.api.CacheEntries, "cache-entries", 8192, "response cache capacity (entries; negative disables)")
	fs.StringVar(&f.mirrorDir, "mirror", "", "watch this directory for *.nrtm journals; re-verify what each applied journal can affect and hot-swap the store")
	fs.DurationVar(&f.mirrorInterval, "mirror-interval", 2*time.Second, "journal directory poll interval for -mirror")
	fs.IntVar(&f.reconcileEvery, "reconcile-every", 64, "run a full-verification reconciliation pass every N incremental applies, alerting on drift (0 disables)")
	fs.StringVar(&f.traceSamples, "trace-sample", "verify=1024,compile=16,ingest=16,api=64", "per-stage trace sampling as stage=N pairs (1-in-N); unlisted stages trace every operation")
	fs.DurationVar(&f.slo.MaxStaleness, "stale-after", 0, "degrade /healthz when the served snapshot is older than this (0 disables; try 5x -mirror-interval)")
	fs.Float64Var(&f.slo.MaxErrorRate, "max-error-rate", 0, "degrade /healthz when the windowed 5xx rate exceeds this fraction (0 disables)")
	fs.Parse(args)
	if f.importPath != "" && f.mirrorDir != "" {
		// Reported where the flag package reports its own parse errors.
		err := errors.New("-import and -mirror exclude each other: an imported report file has no engine state for a journal to patch")
		fmt.Fprintln(fs.Output(), err)
		return nil, err
	}
	return f, nil
}

func main() {
	f, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // parseFlags has said why
	}
	p := daemon.Start("reportd", f.logLevel, f.traceSamples, f.metricsAddr)
	watchdog := trace.NewWatchdog(f.slo)
	e := daemon.NewEngine(p, watchdog)
	e.ReconcileEvery = f.reconcileEvery
	if f.importPath != "" {
		err = e.Import(f.importPath)
	} else {
		err = e.Boot(f.dumps, f.rels, f.routes, f.shards, f.mirrorDir != "")
	}
	if err != nil {
		telemetry.Fatal("start-up failed", "err", err)
	}
	if f.mirrorDir != "" {
		e.Mirror(f.dumps, f.mirrorDir, f.mirrorInterval)
	}

	f.api.Tracer, f.api.Watchdog = p.Tracer, watchdog
	srv := api.NewServer(e.Store(), f.api, api.NewMetrics(p.Registry))
	if err := srv.Listen(f.listen); err != nil {
		telemetry.Fatal("listen failed", "addr", f.listen, "err", err)
	}
	if f.addrFile != "" {
		contents := fmt.Sprintf("api=%s\nmetrics=%s\n", srv.Addr().String(), p.MetricsAddr)
		if err := os.WriteFile(f.addrFile, []byte(contents), 0o644); err != nil {
			telemetry.Fatal("write addr file failed", "path", f.addrFile, "err", err)
		}
	}
	snap := e.Store().Current()
	p.Logger.Info("serving",
		"addr", srv.Addr().String(), "ases", len(snap.ASNs()),
		"routes", snap.NumRoutes(), "checks", snap.NumChecks())

	p.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		telemetry.Fatal("shutdown failed", "err", err)
	}
	p.Logger.Info("drained and stopped")
}
