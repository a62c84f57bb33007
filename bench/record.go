package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds
// every judgement below is made against.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec finds BENCHMARK.json in the working directory or above it
// and returns the directory it is in, the repository root.
func loadSpec() (root string, spec *benchSpec, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", nil, err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			spec = new(benchSpec)
			if err := json.Unmarshal(raw, spec); err != nil {
				return "", nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return dir, spec, nil
		}
		if !errors.Is(err, os.ErrNotExist) || filepath.Dir(dir) == dir {
			return "", nil, errors.New("BENCHMARK.json not found in the working directory or above it")
		}
		dir = filepath.Dir(dir)
	}
}

// driverLine is the one JSON object the benchmark driver reads: every
// end-to-end metric of an untraced run, every per-layer metric of a
// traced one. A layer the workload never enters reads 0.
func (s *benchSpec) driverLine(rec *runRecord) any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := s.EndToEnd
	if rec.Traced {
		list = s.PerLayer
	}
	m := make(map[string]value, len(list))
	for _, spec := range list {
		m[spec.Name] = value{rec.Metrics[spec.Name], spec.Unit}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, m}
}

// golden.json pins output digests by seed, then by digest name.
func loadGolden(root string, seed int64) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "bench", "golden.json"))
	if err != nil {
		return nil, err
	}
	var all map[string]map[string]string
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return all[strconv.FormatInt(seed, 10)], nil
}

// updateGolden runs the three workloads whose outputs are pinned and
// rewrites their digests for opt.seed.
func updateGolden(root string, opt options) error {
	path := filepath.Join(root, "bench", "golden.json")
	all := make(map[string]map[string]string)
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &all); err != nil {
			return err
		}
	}
	pins := make(map[string]string)
	for _, w := range []string{"cold-start-2k", "mirror-churn-2k", "ingest-20k"} {
		dir := filepath.Join(root, "bench", "out", fmt.Sprintf("tmp-%d", os.Getpid()))
		corpus := corpusOf(w)
		if _, _, _, err := spawn(childOrder{Generate: corpus, ASes: opt.ases(corpus), Seed: opt.seed, Dir: dir}); err != nil {
			return err
		}
		res, _, err := measure(runConfig{Workload: w, Dir: dir, Seed: opt.seed, Ops: 1, Digest: true})
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		for name, d := range res.Digests {
			pins[name] = d
		}
	}
	all[strconv.FormatInt(opt.seed, 10)] = pins
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// row is one line of history.jsonl: one metric of one workload,
// summarised over the runs of one suite, with where and on what it was
// measured.
type row struct {
	SHA        string  `json:"sha"`
	Dirty      bool    `json:"dirty"`
	Host       string  `json:"host"`
	CPUModel   string  `json:"cpu_model"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Seed       int64   `json:"seed"`
	Workload   string  `json:"workload"`
	Metric     string  `json:"metric"`
	Unit       string  `json:"unit"`
	Median     float64 `json:"median"`
	Q1         float64 `json:"q1"`
	Q3         float64 `json:"q3"`
	N          int     `json:"n"`
	LoadAvg1   float64 `json:"loadavg1"`
	Noisy      bool    `json:"noisy,omitempty"`
}

// suiteResult is one run of the suite: the rows history.jsonl gets (the
// end-to-end metrics) and the per-layer table of the traced pass.
type suiteResult struct {
	At     string                        `json:"at"`
	Rows   []row                         `json:"rows"`
	Layers map[string]map[string]float64 `json:"layers"` // workload -> per-layer metric
	Failed int                           `json:"failed"`
	Tried  int                           `json:"attempted"`
	Noisy  bool                          `json:"noisy"`
}

func (s *suiteResult) failed() bool { return s.Failed > 0 }

// stamp fills in the fields every row of one invocation shares. It is
// taken once, before the first run: the benchmark's own runs raise the
// load average.
func stamp(root string, seed int64) row {
	r := row{Seed: seed, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), Go: runtime.Version(), SHA: "unknown"}
	r.Host, _ = os.Hostname() // an unnamed host is recorded as such
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				r.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			r.LoadAvg1, _ = strconv.ParseFloat(fields[0], 64) // unreadable load reads as idle
		}
	}
	r.Noisy = r.LoadAvg1 > 0.5*float64(r.NProc)
	git := func(args ...string) (string, error) {
		out, err := exec.Command("git", append([]string{"-C", root}, args...)...).Output()
		return strings.TrimSpace(string(out)), err
	}
	if sha, err := git("rev-parse", "--short=12", "HEAD"); err == nil {
		r.SHA = sha
		status, err := git("status", "--porcelain", "--", ".", ":!bench/history.jsonl")
		r.Dirty = err != nil || status != ""
	}
	return r
}

// suite runs every workload suiteRuns times untraced and once traced, prints
// every metric by name, appends the end-to-end rows to history.jsonl
// and writes the full result under bench/out.
func suite(root string, spec *benchSpec, base row, opt options) (*suiteResult, error) {
	res := &suiteResult{At: time.Now().UTC().Format(time.RFC3339), Layers: make(map[string]map[string]float64), Noisy: base.Noisy}
	if base.Noisy {
		fmt.Printf("load average %.2f on %d CPUs: this run is stamped noisy\n", base.LoadAvg1, base.NProc)
	}
	runs := suiteRuns
	if opt.smoke {
		runs = 0
	}
	for _, w := range spec.Workloads {
		fmt.Printf("== %s\n", w.Name)
		samples := make(map[string][]float64)
		note := func(rec *runRecord) {
			res.Tried += rec.Attempted
			res.Failed += rec.Failed
			for _, n := range rec.Notes {
				fmt.Printf("   note: %s\n", n)
			}
		}
		for i := 0; i < runs; i++ {
			rec, err := runOnce(root, w.Name, false, opt)
			if err != nil {
				return nil, err
			}
			note(rec)
			for name, v := range rec.Metrics {
				samples[name] = append(samples[name], v)
			}
		}
		for _, m := range spec.EndToEnd {
			if len(samples[m.Name]) == 0 {
				continue
			}
			r := base
			r.Workload, r.Metric, r.Unit, r.N = w.Name, m.Name, m.Unit, len(samples[m.Name])
			r.Q1, r.Median, r.Q3 = quartiles(samples[m.Name])
			res.Rows = append(res.Rows, r)
			fmt.Printf("   %-28s %14.4f %-6s [q1 %.4f, q3 %.4f, n %d] bound %.0f%%\n", m.Name, r.Median, m.Unit, r.Q1, r.Q3, r.N, m.Bound*100)
		}
		rec, err := runOnce(root, w.Name, true, opt)
		if err != nil {
			return nil, err
		}
		note(rec)
		res.Layers[w.Name] = rec.Metrics
		if plain := samples["op_ms"]; len(plain) > 0 {
			// The difference between the two kinds of run, as measured:
			// it is the run-to-run noise unless it exceeds it.
			traced, untraced := rec.Metrics["bench.traced_op_ms"], median(plain)
			fmt.Printf("   the traced run's op_ms is %.4f, %+.1f%% from the untraced median\n", traced, (traced/untraced-1)*100)
		}
		for _, m := range spec.PerLayer {
			if v, ok := rec.Metrics[m.Name]; ok {
				fmt.Printf("   %-28s %14.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	fmt.Printf("error_frac %.6f (%d failed of %d attempted)\n", float64(res.Failed)/float64(max(res.Tried, 1)), res.Failed, res.Tried)
	if opt.smoke {
		return res, nil
	}

	out := filepath.Join(root, "bench", "out", "result-"+time.Now().UTC().Format("20060102T150405")+".json")
	raw, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return nil, err
	}
	fmt.Println("result written to", out)
	h, err := os.OpenFile(filepath.Join(root, "bench", "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	enc := json.NewEncoder(h)
	for _, r := range res.Rows {
		if err := enc.Encode(r); err != nil {
			h.Close()
			return nil, err
		}
	}
	return res, h.Close()
}

// verdict judges metric m of b against a: "worse" or "better" when the
// medians differ by more than the bound, "unresolved" when a's own
// spread exceeds the bound and the two interquartile ranges overlap (no
// difference smaller than the noise can be called either way),
// otherwise "unchanged".
func verdict(m metricSpec, a, b row) string {
	worse := (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	spread := (a.Q3 - a.Q1) / a.Median
	overlap := a.Q1 <= b.Q3 && b.Q1 <= a.Q3
	switch {
	case spread > m.Bound && overlap:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	case worse < -m.Bound:
		return "better"
	}
	return "unchanged"
}

// compareRows prints one verdict per (workload, end-to-end metric) and
// counts them.
func compareRows(spec *benchSpec, a, b []row) map[string]int {
	find := func(rows []row, w, m string) (row, bool) {
		for _, r := range rows {
			if r.Workload == w && r.Metric == m {
				return r, true
			}
		}
		return row{}, false
	}
	counts := make(map[string]int)
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			ra, okA := find(a, w.Name, m.Name)
			rb, okB := find(b, w.Name, m.Name)
			if !okA || !okB {
				continue
			}
			v := verdict(m, ra, rb)
			counts[v]++
			fmt.Printf("%-16s %-12s %-10s %12.4f -> %12.4f %s (%+.1f%%, bound %.0f%%)\n",
				w.Name, m.Name, v, ra.Median, rb.Median, m.Unit, (rb.Median-ra.Median)/ra.Median*100, m.Bound*100)
		}
	}
	return counts
}

func compareFiles(spec *benchSpec, pathA, pathB string) int {
	read := func(path string) (res suiteResult) {
		raw, err := os.ReadFile(path)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		return res
	}
	if compareRows(spec, read(pathA).Rows, read(pathB).Rows)["worse"] > 0 {
		return 1
	}
	return 0
}

// selfCheck passes only when two suites of the same binary agree on
// every end-to-end metric, neither ran on a busy host and neither
// failed a check.
func selfCheck(spec *benchSpec, a, b *suiteResult) int {
	counts := compareRows(spec, a.Rows, b.Rows)
	switch {
	case a.Noisy || b.Noisy:
		fmt.Println("selfcheck: refused, the host was busy (noisy run)")
	case a.failed() || b.failed():
		fmt.Println("selfcheck: failed, a correctness check failed")
	case counts["worse"]+counts["better"]+counts["unresolved"] > 0:
		fmt.Println("selfcheck: failed, two runs of the same code disagree beyond a bound")
	default:
		fmt.Println("selfcheck: passed")
		return 0
	}
	return 1
}
