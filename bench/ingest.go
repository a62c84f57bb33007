package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/whois"
)

// whoisd is what cmd/whoisd holds once it can answer.
type whoisd struct {
	x   *ir.IR
	db  *irr.Database
	srv *whois.Server
}

// startWhoisd runs cmd/whoisd's start-up over the dumps in dir, up to
// the first answered query.
func startWhoisd(dir string, rec *recorder, parent, run int) (*whoisd, error) {
	reg := telemetry.NewRegistry("bench")
	samples, err := trace.ParseSamples("ingest=16,whois=64") // whoisd's -trace-sample default
	if err != nil {
		return nil, err
	}
	tracer := trace.New(trace.Config{Sample: samples})
	sp := rec.start("core.load_dumps", parent, run)
	x, _, err := core.LoadDumpDirOpts(dir, core.LoadOptions{
		Stats: &parser.LoadStats{Metrics: parser.NewPipelineMetrics(reg), Trace: tracer},
	})
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	sp = rec.start("irr.index", parent, run)
	w := &whoisd{x: x, db: irr.NewSharded(x, runtime.GOMAXPROCS(0))}
	rec.end(sp)
	sp = rec.start("whois.first_query", parent, run)
	defer rec.end(sp)
	w.srv = whois.NewServer(w.db)
	w.srv.Metrics = whois.NewMetrics(reg)
	w.srv.Tracer = tracer
	if len(x.Routes) == 0 {
		return nil, fmt.Errorf("%s: no route objects", dir)
	}
	q := "!g" + x.Routes[0].Origin.String()
	if ans := w.srv.Query(q); !strings.HasPrefix(ans, "A") {
		return nil, fmt.Errorf("first whois query %s answered %q", q, ans)
	}
	return w, nil
}

// runIngest repeats whoisd's start-up: dumps on disk to the first
// answered whois query.
func runIngest(cfg runConfig, rec *recorder, res *runResult) error {
	t0 := time.Now()
	if !cfg.Smoke {
		if _, err := startWhoisd(cfg.Dir, nil, -1, -1); err != nil {
			return err
		}
		release()
	}
	res.SetupS = time.Since(t0).Seconds()

	ms, err := repeat(cfg, rec, res, 0, func(i, root int) (func() error, error) {
		w, err := startWhoisd(cfg.Dir, rec, root, i)
		if err != nil {
			return nil, err
		}
		return func() error {
			if i == 0 {
				sweep(w, cfg, rec, res)
				if cfg.Trace {
					if err := probeIngest(cfg.Dir, w, rec, res); err != nil {
						return err
					}
				}
			}
			w = nil
			release()
			return nil
		}, nil
	})
	if err != nil {
		return err
	}
	res.setOps(ms)
	bytes, err := dumpBytes(cfg.Dir)
	if err != nil {
		return err
	}
	res.layer("core.dump_mb", float64(bytes)/1e6)
	return nil
}

const sweepQueries = 2000

// sweep asks a fixed, seeded set of whois questions and digests the
// answers together with the per-class object counts and the number of
// parse errors.
func sweep(w *whoisd, cfg runConfig, rec *recorder, res *runResult) {
	autnums := w.x.SortedAutNums()
	sets := sortedKeys(w.x.AsSets)
	rnd := rand.New(rand.NewSource(cfg.Seed))
	h := sha256.New()
	empty := 0
	sp := rec.start("whois.sweep", -1, -1)
	t0 := time.Now()
	for i := 0; i < sweepQueries; i++ {
		route := w.x.Routes[rnd.Intn(len(w.x.Routes))]
		var q string
		switch i % 5 {
		case 0:
			q = autnums[rnd.Intn(len(autnums))].String()
		case 1:
			q = "!g" + route.Origin.String()
		case 2:
			q = "!i" + sets[rnd.Intn(len(sets))] + ",1"
		case 3:
			q = "!r" + route.Prefix.String() + ",o"
		case 4:
			q = "-i origin " + route.Origin.String()
		}
		ans := w.srv.Query(q)
		if ans == "" || strings.HasPrefix(ans, "F") || strings.HasPrefix(ans, "% error") {
			empty++
		}
		fmt.Fprintf(h, "%s\n%s\n", q, ans)
	}
	took := time.Since(t0)
	rec.end(sp)
	res.Attempted += sweepQueries
	if empty > 0 {
		res.Failed += empty
		res.Notes = append(res.Notes, fmt.Sprintf("%d of %d whois queries were refused", empty, sweepQueries))
	}
	res.layer("whois.sweep_qps", sweepQueries/took.Seconds())
	res.digest("ingest-20k.whois_sweep", hex.EncodeToString(h.Sum(nil)))

	classes := make(map[string]int)
	for _, byClass := range w.x.Counts {
		for class, n := range byClass {
			classes[class] += n
		}
	}
	var b strings.Builder
	for _, class := range sortedKeys(classes) {
		fmt.Fprintf(&b, "%s=%d ", class, classes[class])
	}
	fmt.Fprintf(&b, "parse-errors=%d", len(w.x.Errors))
	res.digest("ingest-20k.counts", b.String())
}
