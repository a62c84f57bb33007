// Command irrgen generates the synthetic universe: an AS topology, the
// 13 IRR dumps, the ground-truth AS-relationship file (CAIDA format),
// and the BGP route dumps observed by the collectors. Each registry's
// dump streams to disk as it is generated, so corpus size is bounded
// by disk, not memory.
//
// Usage:
//
//	irrgen -out data/ -ases 2000 -collectors 20 -seed 42
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/telemetry"
)

func main() {
	telemetry.SetupLogger("irrgen", nil)
	if err := run(os.Args[1:], os.Stdout); err != nil {
		telemetry.Fatal("irrgen failed", "err", err)
	}
}

// run is the whole command: args are the command line without the
// program name, and the summary goes to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("irrgen", flag.ExitOnError)
	var (
		out        = fs.String("out", "data", "output directory")
		ases       = fs.Int("ases", 2000, "number of ASes in the topology")
		collectors = fs.Int("collectors", 20, "number of BGP collectors")
		seed       = fs.Int64("seed", 42, "deterministic seed")
		writeMRT   = fs.Bool("mrt", false, "also write routes.mrt in MRT TABLE_DUMP_V2 format")
		evolveN    = fs.Int("evolve", 0, "also emit N evolution steps as NRTM journals under <out>/journals, with the final snapshot's dumps under <out>/final")
		churn      = fs.Float64("churn", 0.01, "per-step policy and set churn fraction for -evolve (route add/withdraw run at half this rate)")
	)
	fs.Parse(args)

	u, routes, err := core.WriteUniverseStream(core.Options{Seed: *seed, ASes: *ases}, *collectors, *seed, *out)
	if err != nil {
		return err
	}
	if *writeMRT {
		if err := core.WriteRoutesMRT(filepath.Join(*out, "routes.mrt"), routes); err != nil {
			return err
		}
	}
	var total int64
	for _, sz := range u.DumpSizes() {
		total += sz
	}
	fmt.Fprintf(stdout, "wrote %d IRR dumps (%.1f MiB), as-rel.txt, and %d routes over %d ASes to %s\n",
		len(irrgen.IRRs), float64(total)/(1<<20), len(routes), len(u.Topo.Order), *out)

	if *evolveN > 0 {
		x, _, err := core.LoadDumpDir(*out)
		if err != nil {
			return err
		}
		return emitEvolution(stdout, x, *out, *evolveN, *seed, *churn)
	}
	return nil
}

// emitEvolution mutates the universe read back from out steps times,
// writing one journal per affected registry and step under
// <out>/journals (named so a lexical sort replays them in order) and
// the final snapshot's dumps under <out>/final.
func emitEvolution(stdout io.Writer, prev *ir.IR, out string, steps int, seed int64, churn float64) error {
	jdir := filepath.Join(out, "journals")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	cfg := irrgen.EvolveConfig{
		Seed:              seed,
		PolicyChurnFrac:   churn,
		SetChurnFrac:      churn,
		RouteAddFrac:      churn / 2,
		RouteWithdrawFrac: churn / 2,
	}
	serials := make(map[string]uint64)
	journals := 0
	for step := 1; step <= steps; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		diff := evolve.Compare(prev, next)
		for _, j := range diff.ToJournals(prev, next, serials) {
			path := filepath.Join(jdir, fmt.Sprintf("%06d.%s.nrtm", step, j.Registry))
			if err := nrtm.WriteJournalFile(path, j); err != nil {
				return err
			}
			journals++
		}
		prev = next
	}
	if err := core.WriteIRDumps(filepath.Join(out, "final"), prev); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "evolved %d steps: %d journals in %s, final dumps in %s\n",
		steps, journals, jdir, filepath.Join(out, "final"))
	return nil
}
