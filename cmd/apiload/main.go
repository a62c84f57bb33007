// Command apiload is the operator's closed-loop load tool for a live
// report API: N workers each issue their next query the moment the
// previous one returns, AS popularity is zipf-distributed (hot ASes
// dominate, as in real operator traffic), and the endpoint mix is
// configurable. It reports achieved QPS and p50/p90/p99 latency as JSON
// and exits 1 past -max-error-rate. The serving benchmark of record is
// bench/'s serve-point-2k and serve-scan-2k, not this tool.
//
//	apiload -addr http://127.0.0.1:8080
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"rpslyzer/internal/api"
	"rpslyzer/internal/telemetry"
)

type outputJSON struct {
	Concurrency  int                       `json:"concurrency"`
	DurationS    float64                   `json:"duration_s"`
	Mix          map[string]int            `json:"mix"`
	ASPopulation int                       `json:"as_population"`
	Runs         map[string]api.LoadResult `json:"runs"`
}

func main() {
	var (
		addr        = flag.String("addr", "", "base URL of a live report API (e.g. http://127.0.0.1:8080)")
		seed        = flag.Int64("seed", 42, "deterministic seed of the query sequence")
		duration    = flag.Duration("duration", 2*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 8, "closed-loop workers")
		mixFlag     = flag.String("mix", "", "endpoint weights, e.g. as_report=45,as_routes=20,reports=15,reverse=10,summary=5,ases=5")
		out         = flag.String("out", "-", "write the JSON result to this file ('-' for stdout)")
		maxErrRate  = flag.Float64("max-error-rate", 0.01, "exit 1 when the error rate (net errors + 5xx over requests) exceeds this fraction (negative disables)")
	)
	flag.Parse()
	telemetry.SetupLogger("apiload", nil)
	if *addr == "" {
		telemetry.Fatal("need -addr")
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		telemetry.Fatal("bad -mix", "err", err)
	}
	cfg := api.LoadConfig{
		Concurrency: *concurrency,
		Duration:    *duration,
		Mix:         mix,
		Seed:        *seed,
	}
	output := outputJSON{
		Concurrency: *concurrency,
		DurationS:   duration.Seconds(),
		Mix:         cfg.Mix,
	}
	if output.Mix == nil {
		output.Mix = api.DefaultMix
	}

	asns, err := api.FetchASNs(*addr)
	if err != nil {
		telemetry.Fatal("fetch AS population failed", "addr", *addr, "err", err)
	}
	if len(asns) == 0 {
		telemetry.Fatal("server reports no ASes", "addr", *addr)
	}
	output.ASPopulation = len(asns)
	run, err := api.RunLoad(api.NewHTTPTarget(*addr, *concurrency*2), asns, cfg)
	if err != nil {
		telemetry.Fatal("load run failed", "err", err)
	}
	output.Runs = map[string]api.LoadResult{"http": run}
	fmt.Fprintf(os.Stderr,
		"http: %d reqs in %.2fs = %.0f QPS (p50 %v, p99 %v; 2xx %d, 404 %d, 4xx %d, 5xx %d, net %d, error rate %.4f)\n",
		run.Requests, run.Duration.Seconds(), run.QPS, run.P50, run.P99,
		run.Status2xx, run.NotFound, run.Status4xx, run.Status5xx, run.NetErrors, run.ErrorRate)

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
	// Fail after the JSON lands so the result survives for triage.
	if *maxErrRate >= 0 && run.ErrorRate > *maxErrRate {
		fmt.Fprintf(os.Stderr, "apiload: error rate %.4f exceeds -max-error-rate %.4f (%d errors / %d requests)\n",
			run.ErrorRate, *maxErrRate, run.Errors, run.Requests)
		os.Exit(1)
	}
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
