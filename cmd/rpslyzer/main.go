// Command rpslyzer parses IRR dumps into the intermediate
// representation (IR) and exports it as JSON, mirroring the paper's
// core tool: "RPSLyzer converts RPSL objects into an intermediate
// representation that captures their meanings ... and can export it to
// JSON files for integration with other tools".
//
// Usage:
//
//	rpslyzer -dumps data/ -o ir.json
//	rpslyzer -dumps data/ -summary
//	rpslyzer -dumps data/ -metrics-addr 127.0.0.1:9090
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rpslyzer/internal/core"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/stats"
	"rpslyzer/internal/telemetry"
)

func main() { run(os.Args[1:], telemetry.Default(), os.Stdout) }

// run is the whole command: args are the command line without the
// program name, reg receives the pipeline metrics and build info, and
// the summary and a "-o -" export go to stdout.
func run(args []string, reg *telemetry.Registry, stdout io.Writer) {
	fs := flag.NewFlagSet("rpslyzer", flag.ExitOnError)
	var (
		dumps       = fs.String("dumps", "data", "directory with *.db IRR dumps")
		out         = fs.String("o", "", "write IR JSON to this file ('-' for stdout)")
		renderDir   = fs.String("render", "", "re-emit the parsed IR as canonical RPSL dumps into this directory")
		summary     = fs.Bool("summary", true, "print a parse summary")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics and /debug/pprof on this address")
		logLevel    = fs.String("log-level", "info", "log level: debug, info, warn, error")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	fs.Parse(args)

	level, err := telemetry.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := telemetry.SetupLogger("rpslyzer", level)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			telemetry.Fatal("create CPU profile failed", "path", *cpuProf, "err", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			telemetry.Fatal("start CPU profile failed", "err", err)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				telemetry.Fatal("create heap profile failed", "path", *memProf, "err", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				telemetry.Fatal("write heap profile failed", "err", err)
			}
		}()
	}

	logger.Info("build info", telemetry.BuildInfoArgs(telemetry.RegisterBuildInfo(reg))...)
	if *metricsAddr != "" {
		telemetry.RegisterRuntimeMetrics(reg)
		ms, err := telemetry.Serve(*metricsAddr, reg)
		if err != nil {
			telemetry.Fatal("metrics endpoint failed", "addr", *metricsAddr, "err", err)
		}
		defer ms.Close()
		logger.Info("metrics endpoint listening", "addr", ms.Addr().String())
	}

	metrics := parser.NewPipelineMetrics(reg)
	start := time.Now()
	x, sizes, err := core.LoadDumpDirOpts(*dumps, core.LoadOptions{Stats: &parser.LoadStats{Metrics: metrics}})
	if err != nil {
		if errors.Is(err, core.ErrNoDumps) {
			telemetry.Fatal(err.Error(),
				"hint", "use -dumps to point at a directory of IRR dumps; cmd/irrgen or core.WriteUniverse can generate one")
		}
		telemetry.Fatal("load failed", "err", err)
	}
	elapsed := time.Since(start)

	if *summary {
		var totalBytes int64
		for _, sz := range sizes {
			totalBytes += sz
		}
		fmt.Fprintf(stdout, "parsed %.1f MiB across %d IRRs in %v\n",
			float64(totalBytes)/(1<<20), len(sizes), elapsed.Round(time.Millisecond))
		fmt.Fprintln(stdout, stats.ThroughputLine(metrics.BytesParsed.Value(), metrics.ObjectsParsed.Value(),
			metrics.ChunksParsed.Value(), metrics.ParseErrors.Values(), parser.DefaultWorkers(0), elapsed))
		fmt.Fprintf(stdout, "aut-nums: %d  as-sets: %d  route-sets: %d  peering-sets: %d  filter-sets: %d  route objects: %d\n",
			len(x.AutNums), len(x.AsSets), len(x.RouteSets), len(x.PeeringSets), len(x.FilterSets), len(x.Routes))
		census := stats.ErrorCensus(x)
		fmt.Fprintf(stdout, "errors: %d syntax, %d invalid as-set names, %d invalid route-set names\n",
			census["syntax"], census["invalid-as-set-name"], census["invalid-route-set-name"])
	}

	if *renderDir != "" {
		if err := core.WriteIRDumps(*renderDir, x); err != nil {
			telemetry.Fatal("render", "dir", *renderDir, "err", err)
		}
		fmt.Fprintf(stdout, "rendered canonical dumps to %s\n", *renderDir)
	}

	if *out != "" {
		w := stdout
		if *out != "-" {
			f, err := os.Create(*out)
			if err != nil {
				telemetry.Fatal("create output", "path", *out, "err", err)
			}
			defer f.Close()
			w = f
		}
		if err := x.WriteJSON(w); err != nil {
			telemetry.Fatal("write JSON", "err", err)
		}
		if *out != "-" {
			fmt.Fprintf(stdout, "wrote IR to %s\n", *out)
		}
	}
}
