// Command nrtm replays and inspects NRTM journals offline. In apply
// mode (the default) it loads a base snapshot from -dumps, applies
// every journal in -journals in serial order, and prints the final
// per-registry serials and object counts; with -expect it additionally
// proves the mirrored database renders identically to a directly
// parsed snapshot, exiting non-zero on any divergence. With -inspect
// it only summarizes the journal files without touching a snapshot.
//
// Usage:
//
//	nrtm -dumps data/ -journals data/journals -expect data/final
//	nrtm -inspect -journals data/journals
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/render"
	"rpslyzer/internal/telemetry"
)

func main() {
	var (
		dumps    = flag.String("dumps", "data", "directory with the base *.db IRR dumps")
		journals = flag.String("journals", "", "directory with *.nrtm journal files (required)")
		expect   = flag.String("expect", "", "directory with expected final *.db dumps; apply then verify render equivalence")
		inspect  = flag.Bool("inspect", false, "only summarize journals, do not apply them")
	)
	flag.Parse()
	telemetry.SetupLogger("nrtm", nil)

	if *journals == "" {
		fmt.Fprintln(os.Stderr, "nrtm: -journals is required")
		os.Exit(2)
	}
	paths, err := nrtm.JournalFiles(*journals)
	if err != nil {
		telemetry.Fatal("list journals failed", "err", err)
	}
	if len(paths) == 0 {
		telemetry.Fatal("no *.nrtm journals found", "dir", *journals)
	}

	if *inspect {
		if err := inspectJournals(paths); err != nil {
			telemetry.Fatal("inspect failed", "err", err)
		}
		return
	}
	if err := applyJournals(*dumps, paths, *expect); err != nil {
		telemetry.Fatal("apply failed", "err", err)
	}
}

func inspectJournals(paths []string) error {
	var ops, adds int
	for _, path := range paths {
		j, err := nrtm.ReadJournalFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		var a int
		for _, op := range j.Ops {
			if op.Action == nrtm.OpAdd {
				a++
			}
		}
		fmt.Printf("%s: %s serials %d-%d (%d ops: %d ADD, %d DEL)\n",
			filepath.Base(path), j.Registry, j.First, j.Last,
			len(j.Ops), a, len(j.Ops)-a)
		ops += len(j.Ops)
		adds += a
	}
	fmt.Printf("total: %d journals, %d ops (%d ADD, %d DEL)\n",
		len(paths), ops, adds, ops-adds)
	return nil
}

func applyJournals(dumps string, paths []string, expect string) error {
	x, _, err := core.LoadDumpDir(dumps)
	if err != nil {
		return err
	}
	mir := nrtm.NewMirror(x, nil, nil)
	var batch []*nrtm.Journal
	var ops int
	for _, path := range paths {
		j, err := nrtm.ReadJournalFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", filepath.Base(path), err)
		}
		batch = append(batch, j)
		ops += len(j.Ops)
	}
	if err := mir.ApplyAll(batch); err != nil {
		return err
	}
	final := mir.DB().IR
	serials := mir.Serials()
	regs := make([]string, 0, len(serials))
	for reg := range serials {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	for _, reg := range regs {
		fmt.Printf("%s: serial %d\n", reg, serials[reg])
	}
	fmt.Printf("applied %d journals (%d ops): %d aut-nums, %d routes, %d as-sets\n",
		len(paths), ops, len(final.AutNums), len(final.Routes), len(final.AsSets))

	if expect == "" {
		return nil
	}
	want, _, err := core.LoadDumpDir(expect)
	if err != nil {
		return err
	}
	if err := renderEqual(final, want); err != nil {
		return err
	}
	fmt.Println("equivalence: OK")
	return nil
}

// renderEqual compares two IRs by their canonical per-registry render
// text, reporting the first diverging registry with a line-level hint.
func renderEqual(got, want *ir.IR) error {
	g, w := render.IR(got), render.IR(want)
	var regs []string
	for reg := range w {
		regs = append(regs, reg)
	}
	sort.Strings(regs)
	for _, reg := range regs {
		if g[reg] == w[reg] {
			continue
		}
		gl, wl := strings.Split(g[reg], "\n"), strings.Split(w[reg], "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				return fmt.Errorf("equivalence failed: %s line %d: got %q, want %q",
					reg, i+1, gl[i], wl[i])
			}
		}
		return fmt.Errorf("equivalence failed: %s: got %d lines, want %d lines",
			reg, len(gl), len(wl))
	}
	for reg := range g {
		if _, ok := w[reg]; !ok {
			return fmt.Errorf("equivalence failed: unexpected registry %s in mirrored snapshot", reg)
		}
	}
	return nil
}
