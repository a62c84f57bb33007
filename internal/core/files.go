package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/mrt"
	"rpslyzer/internal/render"
	"rpslyzer/internal/topology"
)

// WriteUniverse writes a generated universe to dir: one "<irr>.db"
// RPSL dump per registry, "as-rel.txt" with the ground-truth
// relationships in CAIDA format, and "routes.txt" with the collected
// BGP routes.
func WriteUniverse(sys *System, routes []bgpsim.Route, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range irrgen.IRRs {
		path := filepath.Join(dir, strings.ToLower(name)+".db")
		if err := os.WriteFile(path, []byte(sys.Universe.DumpText(name)), 0o644); err != nil {
			return err
		}
	}
	relF, err := os.Create(filepath.Join(dir, "as-rel.txt"))
	if err != nil {
		return err
	}
	if err := sys.Rels.WriteCAIDA(relF); err != nil {
		relF.Close()
		return err
	}
	if err := relF.Close(); err != nil {
		return err
	}
	if routes != nil {
		rf, err := os.Create(filepath.Join(dir, "routes.txt"))
		if err != nil {
			return err
		}
		if err := bgpsim.WriteDump(rf, routes); err != nil {
			rf.Close()
			return err
		}
		return rf.Close()
	}
	return nil
}

// WriteUniverseStream generates a synthetic universe of opts's size
// directly into dir without ever materializing the dump text or a
// parsed IR in memory: each registry's dump streams through a buffered
// writer to "<irr>.db" as it is generated. The topology, ground-truth
// relationships ("as-rel.txt"), and collected routes ("routes.txt",
// collectors/routeSeed as in System.CollectRoutes) are written the
// same as WriteUniverse. This is the large-corpus path: peak heap is
// the topology plus one route table, not the multi-GiB dump text.
// It returns per-IRR dump sizes and the number of routes written.
func WriteUniverseStream(opts Options, collectors int, routeSeed int64, dir string) (map[string]int64, int, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	topo := topology.Generate(opts.Topo)

	var (
		files []*os.File
		bufs  []*bufio.Writer
	)
	closeAll := func() {
		for _, f := range files {
			f.Close()
		}
	}
	u, err := irrgen.GenerateStream(topo, opts.Gen, func(name string) (io.Writer, error) {
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
		closeAll()
		return nil, 0, err
	}
	for i, w := range bufs {
		if err := w.Flush(); err == nil {
			err = files[i].Close()
			files[i] = nil
		}
		if err != nil {
			closeAll()
			return nil, 0, err
		}
	}

	relF, err := os.Create(filepath.Join(dir, "as-rel.txt"))
	if err != nil {
		return nil, 0, err
	}
	if err := topo.Rels.WriteCAIDA(relF); err != nil {
		relF.Close()
		return nil, 0, err
	}
	if err := relF.Close(); err != nil {
		return nil, 0, err
	}

	sim := bgpsim.NewSimulator(topo)
	routes := sim.CollectRoutes(sim.DefaultCollectors(collectors), bgpsim.Options{Seed: routeSeed})
	rf, err := os.Create(filepath.Join(dir, "routes.txt"))
	if err != nil {
		return nil, 0, err
	}
	if err := bgpsim.WriteDump(rf, routes); err != nil {
		rf.Close()
		return nil, 0, err
	}
	if err := rf.Close(); err != nil {
		return nil, 0, err
	}
	return u.DumpSizes(), len(routes), nil
}

// WriteIRDumps renders x as per-registry RPSL dumps in dir, one
// "<irr>.db" file per source (the same layout WriteUniverse emits, so
// the result can be re-read with LoadDumpDir). Objects without a
// recorded source are skipped.
func WriteIRDumps(dir string, x *ir.IR) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for src, text := range render.IR(x) {
		if src == "" {
			continue
		}
		path := filepath.Join(dir, strings.ToLower(src)+".db")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ErrNoDumps reports a dump directory without a single *.db file.
// Tools should treat it as a configuration error (wrong -dumps path)
// and exit non-zero rather than print an empty summary.
var ErrNoDumps = errors.New("no *.db dumps")

// LoadDumpDir parses every "*.db" RPSL dump in dir, feeding them in
// the standard IRR priority order (Table 1); unknown registries come
// last alphabetically. It returns the IR and per-dump sizes. Parsing
// runs through the parallel pipeline with one worker per CPU; use
// LoadDumpDirOpts to tune it.
func LoadDumpDir(dir string) (*ir.IR, map[string]int64, error) {
	return LoadDumpDirOpts(dir, LoadOptions{})
}

// LoadDumpDirOpts is LoadDumpDir with explicit pipeline options.
func LoadDumpDirOpts(dir string, opts LoadOptions) (*ir.IR, map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	found := make(map[string]string) // upper IRR name -> path
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".db") {
			continue
		}
		name := strings.ToUpper(strings.TrimSuffix(e.Name(), ".db"))
		found[name] = filepath.Join(dir, e.Name())
	}
	if len(found) == 0 {
		return nil, nil, fmt.Errorf("core: %w in %s (expected RPSL dump files named like ripe.db)", ErrNoDumps, dir)
	}
	var order []string
	for _, name := range irrgen.IRRs {
		if _, ok := found[name]; ok {
			order = append(order, name)
		}
	}
	var rest []string
	for name := range found {
		known := false
		for _, k := range irrgen.IRRs {
			if k == name {
				known = true
				break
			}
		}
		if !known {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	order = append(order, rest...)

	sizes := make(map[string]int64)
	var dumps []Dump
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for _, name := range order {
		f, err := os.Open(found[name])
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		if st, err := f.Stat(); err == nil {
			sizes[name] = st.Size()
		}
		dumps = append(dumps, Dump{Name: name, R: f})
	}
	x := ParseDumpsParallel(opts, dumps...)
	for _, e := range x.Errors {
		if e.Kind == "io" {
			return nil, nil, fmt.Errorf("core: reading the %s dump: %s", e.Source, e.Msg)
		}
	}
	return x, sizes, nil
}

// LoadRels reads a CAIDA-format relationship file.
func LoadRels(path string) (*asrel.Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return asrel.ReadCAIDA(f)
}

// LoadRoutes reads a route dump file: MRT TABLE_DUMP_V2 when the name
// ends in ".mrt", the pipe-separated text format otherwise.
func LoadRoutes(path string) ([]bgpsim.Route, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".mrt") {
		return mrt.ReadRoutes(f)
	}
	return bgpsim.ReadDump(f)
}

// WriteRoutesMRT writes routes as an MRT TABLE_DUMP_V2 dump.
func WriteRoutesMRT(path string, routes []bgpsim.Route) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := mrt.NewWriter(f, time.Now())
	if err := w.WriteRoutes(routes); err != nil {
		return err
	}
	return f.Close()
}
