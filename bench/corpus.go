package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/topology"
)

// Corpus sizes are part of the workload definitions; -smoke shrinks
// them, nothing else does.
const (
	corpus2k  = "corpus-2k"
	corpus20k = "corpus-20k-dumps"

	collectors  = 8
	evolveSteps = 2
	churn       = 0.01

	// holdoutSeed is the seed no change is written against.
	holdoutSeed = 1337
)

// universeOf returns the seed of the AS graph, the registry objects and
// their churn for a run's seed. Like the AS count, the universe is the
// workload's size: what one operation costs follows its content (how
// many checks a route gets, how many reasons a check carries, how many
// routes a journal dirties) by 10 to 20 % from one universe to the
// next, which is more than any bound in BENCHMARK.json, and the driver
// pools its runs over seeds. So every seed measures universe 42, where
// the seed drives what flows through it (the route sample, every
// request stream, the whois sweep), except the hold-out seed, which
// has a universe of its own: another graph, other objects, other
// journals and other dumps, to be compared with the parent at the same
// seed only.
func universeOf(seed int64) int64 {
	if seed == holdoutSeed {
		return holdoutSeed
	}
	return 42
}

// corpusOf names the corpus each workload reads.
func corpusOf(workload string) string {
	if workload == "ingest-20k" {
		return corpus20k
	}
	return corpus2k
}

// generate writes one corpus into dir with the calls cmd/irrgen makes.
func generate(corpus string, ases int, seed int64, dir string) error {
	if corpus == corpus20k {
		return generateDumps(ases, universeOf(seed), dir)
	}
	return generateUniverse(ases, seed, dir)
}

// generateUniverse is `irrgen -ases N -collectors 8 -evolve 2 -churn
// 0.01`: dumps, as-rel.txt, routes.txt and per-registry journals.
func generateUniverse(ases int, seed int64, dir string) error {
	sys, err := core.BuildSynthetic(core.Options{Seed: universeOf(seed), ASes: ases})
	if err != nil {
		return err
	}
	routes := sys.CollectRoutes(collectors, seed)
	if err := core.WriteUniverse(sys, routes, dir); err != nil {
		return err
	}
	jdir := filepath.Join(dir, "journals")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return err
	}
	cfg := irrgen.EvolveConfig{
		Seed:              universeOf(seed),
		PolicyChurnFrac:   churn,
		SetChurnFrac:      churn,
		RouteAddFrac:      churn / 2,
		RouteWithdrawFrac: churn / 2,
	}
	serials := make(map[string]uint64)
	prev := sys.IR
	for step := 1; step <= evolveSteps; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		for _, j := range evolve.Compare(prev, next).ToJournals(prev, next, serials) {
			path := filepath.Join(jdir, fmt.Sprintf("%06d.%s.nrtm", step, j.Registry))
			if err := nrtm.WriteJournalFile(path, j); err != nil {
				return err
			}
		}
		prev = next
	}
	return nil
}

// generateDumps streams the 13 dumps of an N-AS topology to disk with
// no BGP simulation (`irrgen -stream` minus routes.txt).
func generateDumps(ases int, universe int64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	topo := topology.Generate(topology.Config{ASes: ases, Seed: universe})
	var (
		files []*os.File
		bufs  []*bufio.Writer
	)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	_, err := irrgen.GenerateStream(topo, irrgen.Config{Seed: universe}, func(name string) (io.Writer, error) {
		f, err := os.Create(filepath.Join(dir, strings.ToLower(name)+".db"))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		w := bufio.NewWriterSize(f, 1<<18)
		bufs = append(bufs, w)
		return w, nil
	})
	if err != nil {
		return err
	}
	for i, w := range bufs {
		if err := w.Flush(); err != nil {
			return err
		}
		if err := files[i].Close(); err != nil {
			return err
		}
	}
	return nil
}

// dumpBytes sums the sizes of the *.db files in dir.
func dumpBytes(dir string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.db"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
