// Command verify checks BGP routes against RPSL policies (the paper's
// Section 5 pipeline): it loads IRR dumps, an AS-relationship file,
// and a BGP route dump, verifies every AS pair on every route, and
// prints the aggregate statuses. With -report it prints the per-hop
// Appendix C-style report for each route.
//
// Usage:
//
//	verify -dumps data/ -rels data/as-rel.txt -routes data/routes.txt
//	verify -dumps data/ -rels data/as-rel.txt -route "103.162.114.0/23|3257 1299 6939" -report
//
// With -changed the command replays one NRTM journal file through the
// step `reportd -mirror` runs for it (read, apply to a mirror of the
// dumps, the daemon engine's Step) and prints which dependency keys the
// journal touched, which compiled programs they invalidate, how many
// routes they dirty, and the affected ASes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/daemon"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/report"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

func main() {
	var (
		dumps     = flag.String("dumps", "data", "directory with *.db IRR dumps")
		relsPath  = flag.String("rels", "data/as-rel.txt", "CAIDA-format AS relationship file")
		routes    = flag.String("routes", "data/routes.txt", "BGP route dump file")
		oneRoute  = flag.String("route", "", "verify a single 'prefix|asn asn ...' route instead")
		printRep  = flag.Bool("report", false, "print per-hop reports")
		jsonOut   = flag.String("json", "", "write per-route reports as JSON lines to this file ('-' for stdout; importable by reportd -import)")
		paperMode = flag.Bool("paper-skips", false, "skip complex regexes like the published RPSLyzer")
		changed   = flag.String("changed", "", "NRTM journal file (*.nrtm) to replay over the dumps: re-verify only the routes it can affect and print the affected ASes")
		slowest   = flag.Int("slowest", 0, "after verifying, print the N slowest routes/ASes and hottest compiled programs (heavy-hitter estimates)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	telemetry.SetupLogger("verify", nil)

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

	x, _, err := core.LoadDumpDir(*dumps)
	if err != nil {
		telemetry.Fatal("load dumps failed", "err", err)
	}
	rels, err := core.LoadRels(*relsPath)
	if err != nil {
		telemetry.Fatal("load relationships failed", "err", err)
	}
	vcfg := verify.Config{SkipComplexRegex: *paperMode}
	db, verifier := core.BuildFromIR(x, rels, vcfg)
	var prof *verify.Profiler
	if *slowest > 0 {
		prof = verify.NewProfiler(4 * *slowest)
		// Offline profiling wants exact weights, not sampled estimates.
		prof.SetRouteSample(1)
		verifier.SetProfiler(prof)
	}

	var rts []bgpsim.Route
	if *oneRoute != "" {
		rts, err = bgpsim.ReadDump(strings.NewReader(*oneRoute))
	} else {
		rts, err = core.LoadRoutes(*routes)
	}
	if err != nil {
		telemetry.Fatal("load routes failed", "err", err)
	}

	if *changed != "" {
		if err := replayJournal(os.Stdout, *changed, db, rels, vcfg, rts); err != nil {
			telemetry.Fatal("journal replay failed", "path", *changed, "err", err)
		}
		return
	}

	var jsonEnc *json.Encoder
	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				telemetry.Fatal("create JSON output failed", "path", *jsonOut, "err", err)
			}
			defer f.Close()
			w = f
		}
		jsonEnc = json.NewEncoder(w)
	}

	start := time.Now()
	agg := report.NewAggregator()
	partitions := runtime.GOMAXPROCS(0) // VerifyStream's sweep, Shards unset
	if *printRep || jsonEnc != nil {
		partitions = 1
		for _, r := range rts {
			rep := verifier.VerifyRoute(r)
			agg.Add(rep)
			if jsonEnc != nil {
				if err := jsonEnc.Encode(report.ToJSON(rep)); err != nil {
					telemetry.Fatal("JSON encode failed", "err", err)
				}
			}
			if *printRep {
				fmt.Printf("route %s via %v\n", r.Prefix, r.Path)
				for _, c := range rep.Checks {
					fmt.Printf("  %s\n", c)
				}
				if rep.Ignored != "" {
					fmt.Printf("  (ignored: %s)\n", rep.Ignored)
				}
			}
		}
	} else {
		verifier.VerifyStream(rts, 0, agg.Add)
	}
	elapsed := time.Since(start)

	total := agg.Checks.Total()
	fr := agg.Checks.Fractions()
	fmt.Printf("verified %d routes (%d checks) in %v (%.0f routes/s, %d partitions)\n",
		agg.Routes, total, elapsed.Round(time.Millisecond),
		float64(agg.Routes)/elapsed.Seconds(), partitions)
	fmt.Printf("ignored: %d AS-set routes, %d single-AS routes\n", agg.IgnoredASSet, agg.IgnoredSingleAS)
	for st := verify.Verified; st <= verify.Unverified; st++ {
		fmt.Printf("  %-11s %9d  (%.2f%%)\n", st, agg.Checks[st], 100*fr[st])
	}
	fh := agg.FirstHop.Fractions()
	fmt.Printf("first hop (origin-side, where filtering best prevents leaks/hijacks):\n")
	fmt.Printf("  verified=%.2f%% unrecorded=%.2f%% relaxed=%.2f%% safelisted=%.2f%% unverified=%.2f%%\n",
		100*fh[verify.Verified], 100*fh[verify.Unrecorded], 100*fh[verify.Relaxed],
		100*fh[verify.Safelisted], 100*fh[verify.Unverified])
	if prof != nil {
		printTopK("slowest routes", prof.SlowRoutes, *slowest)
		printTopK("slowest origin ASes", prof.SlowASes, *slowest)
		printTopK("hottest compiled programs", prof.HotPrograms, *slowest)
	}
}

// replayJournal is -changed: the daemon engine booted over the corpus
// as `reportd -mirror` boots it, then one journal file through what
// nrtm.Poll does with it (ReadJournalFile, ApplyAllKeys, the engine's
// Step), the step's bookkeeping written to w. The dumps are taken to
// stand at the serial the journal continues from; both times include
// the snapshot freeze and swap the daemon pays.
func replayJournal(w io.Writer, path string, db *irr.Database, rels *asrel.Database, vcfg verify.Config, rts []bgpsim.Route) error {
	j, err := nrtm.ReadJournalFile(path)
	if err != nil {
		return err
	}
	e := daemon.NewEngine(&daemon.Process{Logger: slog.Default(), Registry: telemetry.NewRegistry("verify")}, nil)
	t0 := time.Now()
	if err := e.BootCorpus(db, rels, rts, vcfg, true); err != nil {
		return err
	}
	baseline := time.Since(t0)
	stats := e.Incremental().GraphStats()

	t1 := time.Now()
	mir := nrtm.NewMirrorDB(db, map[string]uint64{j.Registry: j.First - 1}, nil)
	keys, err := mir.ApplyAllKeys([]*nrtm.Journal{j})
	if err != nil {
		return err
	}
	res := e.Step(mir.DB(), keys, nil)
	fmt.Fprintf(w, "baseline: verified %d routes in %v (depgraph: %d programs, %d keys, %d edges)\n",
		len(rts), baseline.Round(time.Millisecond), stats.Programs, stats.Keys, stats.Edges)
	fmt.Fprintf(w, "journal: %s serials %d-%d, %d operations\n", j.Registry, j.First, j.Last, len(j.Ops))
	fmt.Fprintf(w, "changed keys: %d\n", res.TouchedKeys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s\n", k)
	}
	fmt.Fprintf(w, "invalidated programs: %d", len(res.Programs))
	for _, asn := range res.Programs {
		fmt.Fprintf(w, " AS%d", uint32(asn))
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "re-verified %d of %d routes (%d patched check by check) in %v\n",
		res.Routes, len(rts), res.Patched, time.Since(t1).Round(time.Millisecond))
	affected := e.Incremental().AffectedASes(res.Dirty)
	fmt.Fprintf(w, "affected ASes: %d\n", len(affected))
	for _, asn := range affected {
		fmt.Fprintf(w, "  AS%d\n", uint32(asn))
	}
	return nil
}

// printTopK renders one heavy-hitter sketch. Weights are seconds;
// MaxError bounds how much eviction may have over-credited a key.
func printTopK(title string, tk *trace.TopK, n int) {
	entries := tk.Top(n)
	fmt.Printf("%s (top %d of %d tracked):\n", title, len(entries), tk.Len())
	for i, e := range entries {
		line := fmt.Sprintf("  %2d. %-24s %8.3fs over %d obs", i+1, e.Key, e.Weight, e.Count)
		if e.MaxError > 0 {
			line += fmt.Sprintf(" (±%.3fs)", e.MaxError)
		}
		fmt.Println(line)
	}
}
