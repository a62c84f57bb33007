// Command whoisd serves RPSL objects from parsed IRR dumps over the
// classic whois one-query-per-connection protocol. With -mirror it
// also watches a journal directory for NRTM deltas and answers from the
// mirror's current database, which each applied journal replaces, so
// queries never stop while the data moves forward.
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
	"time"

	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/whois"
)

// flags is whoisd's command line.
type flags struct {
	dumps, listen, mirrorDir            string
	metricsAddr, logLevel, traceSamples string
	mirrorInterval                      time.Duration
}

// parseFlags exits 2 on a bad command line, 0 on -h.
func parseFlags(args []string) *flags {
	f := &flags{}
	fs := flag.NewFlagSet("whoisd", flag.ExitOnError)
	fs.StringVar(&f.dumps, "dumps", "data", "directory with *.db IRR dumps")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:4343", "listen address")
	fs.StringVar(&f.metricsAddr, "metrics-addr", "", "serve /metrics, /debug/pprof, and /debug/trace on this address")
	fs.StringVar(&f.logLevel, "log-level", "info", "log level: debug, info, warn, error")
	fs.StringVar(&f.mirrorDir, "mirror", "", "watch this directory for *.nrtm journals and apply them incrementally")
	fs.DurationVar(&f.mirrorInterval, "mirror-interval", 2*time.Second, "journal directory poll interval for -mirror")
	fs.StringVar(&f.traceSamples, "trace-sample", "ingest=16,whois=64", "per-stage trace sampling as stage=N pairs (1-in-N); unlisted stages trace every operation")
	fs.Parse(args)
	return f
}

// serve loads the dumps and starts answering on f.listen, behind p's
// mirror loop when -mirror names a journal directory.
func serve(f *flags, p *daemon.Process) (*whois.Server, error) {
	loadStats := &parser.LoadStats{Metrics: parser.NewPipelineMetrics(p.Registry), Trace: p.Tracer}
	root := p.BootSpan()
	db, err := daemon.LoadDB(root, f.dumps, core.LoadOptions{Stats: loadStats})
	root.End()
	if err != nil {
		return nil, err
	}
	srv := whois.NewServer(db)
	srv.Metrics, srv.Logger, srv.Tracer = whois.NewMetrics(p.Registry), p.Logger, p.Tracer
	if f.mirrorDir != "" {
		srv.Mirror = p.Mirror(db, f.dumps, f.mirrorDir, f.mirrorInterval, nil)
	}
	if err := srv.Listen(f.listen); err != nil {
		return nil, fmt.Errorf("listen on %s: %w", f.listen, err)
	}
	p.Logger.Info("serving",
		"autnums", len(db.IR.AutNums), "routes", len(db.IR.Routes), "addr", srv.Addr().String())
	return srv, nil
}

func main() {
	f := parseFlags(os.Args[1:])
	p := daemon.Start("whoisd", f.logLevel, f.traceSamples, f.metricsAddr)
	srv, err := serve(f, p)
	if err != nil {
		telemetry.Fatal("start-up failed", "err", err)
	}
	p.Wait()
	if err := srv.Close(); err != nil {
		telemetry.Fatal("shutdown failed", "err", err)
	}
}
