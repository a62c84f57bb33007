// Command whoisd serves RPSL objects from parsed IRR dumps over the
// classic whois one-query-per-connection protocol. With -mirror it
// also watches a journal directory for NRTM deltas and hot-swaps the
// served database after each applied journal, so queries never stop
// while the data moves forward.
//
// Usage:
//
//	whoisd -dumps data/ -listen 127.0.0.1:4343 -metrics-addr 127.0.0.1:9090
//	whoisd -dumps data/ -mirror data/journals -mirror-interval 2s
//	whois -h 127.0.0.1 -p 4343 AS64500
//	curl http://127.0.0.1:9090/metrics
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/whois"
)

func main() {
	var (
		dumps          = flag.String("dumps", "data", "directory with *.db IRR dumps")
		listen         = flag.String("listen", "127.0.0.1:4343", "listen address")
		metricsAddr    = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and /debug/pprof on this address")
		logLevel       = flag.String("log-level", "info", "log level: debug, info, warn, error")
		shards         = flag.Int("shards", runtime.GOMAXPROCS(0), "origin-AS shards for the route indexes (1 = single-shard layout; responses are byte-identical at any count)")
		mirrorDir      = flag.String("mirror", "", "watch this directory for *.nrtm journals and apply them incrementally")
		mirrorInterval = flag.Duration("mirror-interval", 2*time.Second, "journal directory poll interval for -mirror")
		traceSamples   = flag.String("trace-sample", "ingest=16,whois=64", "per-stage trace sampling as stage=N pairs (1-in-N); unlisted stages trace every operation")
	)
	flag.Parse()

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := telemetry.SetupLogger("whoisd", level)

	samples, err := trace.ParseSamples(*traceSamples)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tracer := trace.New(trace.Config{Sample: samples})

	reg := telemetry.Default()
	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(reg))...)
	telemetry.RegisterRuntimeMetrics(reg)
	if *metricsAddr != "" {
		ms, err := telemetry.Serve(*metricsAddr, reg,
			telemetry.Mount{Pattern: "/debug/trace/", Handler: tracer.Handler()})
		if err != nil {
			telemetry.Fatal("metrics endpoint failed", "addr", *metricsAddr, "err", err)
		}
		defer ms.Close()
		logger.Info("metrics endpoint listening", "addr", ms.Addr().String())
	}

	loadStats := &parser.LoadStats{Metrics: parser.NewPipelineMetrics(reg), Trace: tracer}
	x, _, err := core.LoadDumpDirOpts(*dumps, core.LoadOptions{Stats: loadStats})
	if err != nil {
		telemetry.Fatal("load failed", "err", err)
	}
	srv := whois.NewServer(irr.NewSharded(x, *shards))
	srv.Metrics = whois.NewMetrics(reg)
	srv.Logger = logger
	srv.Tracer = tracer
	shardMetrics := shard.NewMetrics(reg)
	shardMetrics.ObservePlan(srv.DB().ShardRouteCounts())

	var stopMirror chan struct{}
	if *mirrorDir != "" {
		mir := nrtm.NewMirrorDB(srv.DB(), nil, nrtm.NewMetrics(reg))
		srv.SerialSource = mir.Serials
		stopMirror = make(chan struct{})
		dumpDir := *dumps
		go nrtm.Poll(mir, nrtm.PollConfig{
			JournalDir: *mirrorDir,
			Interval:   *mirrorInterval,
			Logger:     logger,
			Tracer:     tracer,
			Reload: func() (*ir.IR, error) {
				x, _, err := core.LoadDumpDir(dumpDir)
				return x, err
			},
			OnApply: func(db *irr.Database, _ []depgraph.Key, _ *trace.Span) {
				srv.SetDB(db)
				shardMetrics.ObservePlan(db.ShardRouteCounts())
			},
		}, stopMirror)
	}

	if err := srv.Listen(*listen); err != nil {
		telemetry.Fatal("listen failed", "addr", *listen, "err", err)
	}
	logger.Info("serving",
		"autnums", len(x.AutNums), "routes", len(x.Routes), "addr", srv.Addr().String())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if stopMirror != nil {
		close(stopMirror)
	}
	if err := srv.Close(); err != nil {
		telemetry.Fatal("shutdown failed", "err", err)
	}
}
