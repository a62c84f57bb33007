// Command bench is the repository's benchmark: five workloads that
// drive the calls cmd/reportd, cmd/whoisd and cmd/apiload make, from
// outside, and report end-to-end and per-layer metrics. See README.md
// in this directory and BENCHMARK.json at the repository root.
//
//	go run ./bench                                  # the suite: every workload, untraced then traced
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   # one run, one JSON line (the driver's form)
//	go run ./bench -selfcheck                       # the suite twice; fails unless the two agree
//	go run ./bench -compare A.json B.json           # judge two result files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// childEnv carries a child's orders. Children are this same binary:
// the generator child writes a corpus, the workload child measures one
// workload over it in a fresh process, so that neither heap state nor
// peak memory leaks from one workload into the next.
const childEnv = "RPSLYZER_BENCH_CHILD"

type childOrder struct {
	// Generate, when set, names the corpus to write into Dir.
	Generate string    `json:"generate,omitempty"`
	ASes     int       `json:"ases,omitempty"`
	Seed     int64     `json:"seed"`
	Dir      string    `json:"dir"`
	Run      runConfig `json:"run"`
}

// childMain runs if this process is a child; it reports whether it was.
func childMain() bool {
	raw := os.Getenv(childEnv)
	if raw == "" {
		return false
	}
	var o childOrder
	if err := json.Unmarshal([]byte(raw), &o); err != nil {
		fatal(err)
	}
	if o.Generate != "" {
		if err := generate(o.Generate, o.ASes, o.Seed, o.Dir); err != nil {
			fatal(err)
		}
		return true
	}
	res, err := runWorkload(o.Run)
	if err != nil {
		fatal(err)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatal(err)
	}
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// spawn runs this binary as a child and returns its standard output,
// wall time and peak resident set (MB).
func spawn(o childOrder) (out []byte, wall time.Duration, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := json.Marshal(o)
	if err != nil {
		return nil, 0, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err = cmd.Output()
	wall = time.Since(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("child %s%s: %w", o.Generate, o.Run.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return out, wall, rssMB, nil
}

// options are the benchmark's own settings; none reaches the program.
type options struct {
	seed    int64
	seconds float64
	smoke   bool
}

// sizes returns the AS count of a corpus.
func (o options) ases(corpus string) int {
	switch {
	case o.smoke:
		return 300
	case corpus == corpus20k:
		return 20000
	}
	return 2000
}

// suiteRuns is how many untraced runs of each workload a suite makes;
// its medians and quartiles are over them.
const suiteRuns = 3

// runRecord is the outcome of one run of one workload.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runOnce generates the workload's corpus, measures the workload in a
// fresh child and checks its outputs. An untraced run reports the
// end-to-end metrics, a traced one the per-layer ones.
func runOnce(root, workload string, traced bool, opt options) (*runRecord, error) {
	corpus := corpusOf(workload)
	dir := filepath.Join(root, "bench", "out", fmt.Sprintf("tmp-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	_, gen, _, err := spawn(childOrder{Generate: corpus, ASes: opt.ases(corpus), Seed: opt.seed, Dir: dir})
	if err != nil {
		return nil, err
	}

	rec := &runRecord{Workload: workload, Seed: opt.seed, Traced: traced, Metrics: make(map[string]float64)}
	var pinned map[string]string // nil: this run's outputs are not pinned
	if !opt.smoke {
		if pinned, err = loadGolden(root, opt.seed); err != nil {
			return nil, err
		}
	}
	res, rss, err := measure(runConfig{
		Workload: workload, Dir: dir, Seed: opt.seed, Seconds: opt.seconds, Smoke: opt.smoke, Digest: pinned != nil,
		Trace: traced, TracePath: filepath.Join(root, "bench", "out", "trace-"+workload+".json"),
	})
	if err != nil {
		return nil, err
	}
	rec.Attempted, rec.Failed, rec.Notes = res.Attempted, res.Failed, res.Notes
	if pinned == nil && !opt.smoke {
		rec.Notes = append(rec.Notes, fmt.Sprintf("seed %d is not pinned in golden.json: arithmetic checks only", opt.seed))
	}
	for name, got := range res.Digests {
		if want, ok := pinned[name]; ok {
			rec.Attempted++
			if got != want {
				rec.Failed++
				rec.Notes = append(rec.Notes, fmt.Sprintf("%s: got %s, golden.json pins %s", name, got, want))
			}
		}
	}
	if traced {
		for name, v := range res.Layers {
			rec.Metrics[name] = v
		}
		return rec, nil
	}
	rec.Metrics["setup_s"] = gen.Seconds() + res.SetupS
	rec.Metrics["op_ms"] = res.Ops.P50
	rec.Metrics["ops_per_s"] = res.OpsPerS
	rec.Metrics["peak_rss_mb"] = rss
	return rec, nil
}

// measure runs one workload child.
func measure(cfg runConfig) (*runResult, float64, error) {
	out, _, rss, err := spawn(childOrder{Run: cfg})
	if err != nil {
		return nil, 0, err
	}
	var res runResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, 0, fmt.Errorf("child %s: %w", cfg.Workload, err)
	}
	return &res, rss, nil
}

func main() {
	if childMain() {
		return
	}
	var (
		workload  = flag.String("workload", "", "run this one workload once and print one JSON result line (the driver's form)")
		seed      = flag.Int64("seed", 42, "corpus and request-stream seed (42 and 1337 are pinned in golden.json)")
		secs      = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
		traceFlag = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer ones")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice and fail unless every end-to-end metric agrees within its bound")
		compare   = flag.Bool("compare", false, "compare two result files: bench -compare A.json B.json")
		smoke     = flag.Bool("smoke", false, "300-AS corpora, one repetition, no golden: does the harness still fit the program?")
		golden    = flag.Bool("update-golden", false, "run the digest workloads at -seed and pin their digests in golden.json")
	)
	flag.Parse()
	root, spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	opt := options{seed: *seed, seconds: *secs, smoke: *smoke}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.smoke {
		opt.seconds = 0.3
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		fatal(err)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		os.Exit(compareFiles(spec, flag.Arg(0), flag.Arg(1)))
	case *golden:
		if err := updateGolden(root, opt); err != nil {
			fatal(err)
		}
	case *workload != "":
		rec, err := runOnce(root, *workload, *traceFlag == 1, opt)
		if err != nil {
			fatal(err)
		}
		for _, n := range rec.Notes {
			fmt.Fprintln(os.Stderr, "bench:", n)
		}
		if err := json.NewEncoder(os.Stdout).Encode(spec.driverLine(rec)); err != nil {
			fatal(err)
		}
	case *selfcheck:
		base := stamp(root, opt.seed)
		a, err := suite(root, spec, base, opt)
		if err != nil {
			fatal(err)
		}
		b, err := suite(root, spec, base, opt)
		if err != nil {
			fatal(err)
		}
		os.Exit(selfCheck(spec, a, b))
	default:
		res, err := suite(root, spec, stamp(root, opt.seed), opt)
		if err != nil {
			fatal(err)
		}
		if res.failed() {
			os.Exit(1)
		}
	}
}

// sortedKeys returns the keys of m in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
