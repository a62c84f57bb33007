// Package rpslyzer's root benchmarks are the two timing gates of
// scripts/verify.sh, each asserting its own bound. The paper's tables
// and figures are cmd/experiments' rows; the system's end-to-end and
// per-layer timings are bench/'s.
package rpslyzer

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/shard"
	"rpslyzer/internal/telemetry"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// fixture is the 800-AS universe the gates and heap_test.go share,
// built once.
type fixture struct {
	sys     *core.System
	routes  []bgpsim.Route
	reports []verify.RouteReport
}

var (
	fixOnce sync.Once
	fix     fixture
)

func getFixture(tb testing.TB) *fixture {
	tb.Helper()
	fixOnce.Do(func() {
		sys, err := core.BuildSynthetic(core.Options{Seed: 42, ASes: 800, Collectors: 8})
		if err != nil {
			panic(err)
		}
		routes := sys.CollectRoutes(8, 42)
		fix = fixture{sys: sys, routes: routes, reports: sys.Verifier.VerifyAll(routes, 0)}
	})
	return &fix
}

// median sorts xs and returns its middle element.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// BenchmarkReverify measures one incremental re-verification step at
// 1% churn and asserts what it is for: the engine starts warm on
// snapshot A, then each step applies the touched-key delta for the
// other snapshot and re-executes only the dirty routes, alternating
// A→B and B→A so every step sees a real delta. The median step must be
// at least 20x faster than verifying every route of the corpus the way
// a step verifies a dirty one (VerifyRoute: exact-size reports, no
// pair sharing), or the benchmark fails; both sides are timed here, in
// one process, at least nine steps against the median of three sweeps.
func BenchmarkReverify(b *testing.B) {
	f := getFixture(b)
	prev := f.sys.IR
	next := irrgen.Evolve(prev, 1, irrgen.EvolveConfig{Seed: 42}) // defaults: 1% policy/set churn
	// One serial counter across both directions, so the reverse journals
	// continue where the forward ones left off.
	serials := make(map[string]uint64)
	mir := nrtm.NewMirrorDB(irr.New(prev), nil, nil)
	keysAB, err := mir.ApplyAllKeys(evolve.Compare(prev, next).ToJournals(prev, next, serials))
	if err != nil {
		b.Fatal(err)
	}
	dbB := mir.DB()
	keysBA, err := mir.ApplyAllKeys(evolve.Compare(next, prev).ToJournals(next, prev, serials))
	if err != nil {
		b.Fatal(err)
	}
	dbA := mir.DB()
	inc, err := verify.NewIncremental(irr.New(prev), f.sys.Rels, verify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	inc.Init(f.routes, 0)

	v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
	v.VerifyAll(f.routes[:min(len(f.routes), 1000)], 0)
	reports := make([]verify.RouteReport, len(f.routes))
	workers := runtime.GOMAXPROCS(0)
	sweeps := make([]time.Duration, 3)
	for k := range sweeps {
		t0 := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := w; j < len(f.routes); j += workers {
					reports[j] = v.VerifyRoute(f.routes[j])
				}
			}()
		}
		wg.Wait()
		sweeps[k] = time.Since(t0)
	}

	steps := make([]time.Duration, max(b.N, 9))
	var res verify.ReverifyResult
	for i := range steps {
		t0 := time.Now()
		if i%2 == 0 {
			res = inc.Reverify(dbB, keysAB, 0, nil)
		} else {
			res = inc.Reverify(dbA, keysBA, 0, nil)
		}
		steps[i] = time.Since(t0)
		if res.Full {
			b.Fatal("incremental step fell back to full verification")
		}
		if res.Routes == 0 {
			b.Fatal("delta dirtied no routes")
		}
	}
	step, sweep := median(steps), median(sweeps)
	speedup := float64(sweep) / float64(step)
	b.ReportMetric(float64(step), "ns/op")
	b.ReportMetric(float64(res.Routes), "dirty-routes")
	b.ReportMetric(float64(len(res.Programs)), "dirty-programs")
	b.ReportMetric(speedup, "speedup")
	if speedup < 20 {
		b.Fatalf("one step takes %v, every route %v: %.1fx, want >= 20x", step, sweep, speedup)
	}
}

// maxInstrumentationOverhead bounds BenchmarkVerifyAllTraced's median
// overhead fraction. With the sketches' eviction on a heap the
// instrumentation measures +5% to +7% (14 runs of 30 pairs on a shared
// 2-CPU host read -3% to +9.4%; runs of 15 pairs reached +12.6%, hence
// the 30).
const maxInstrumentationOverhead = 0.12

// BenchmarkVerifyAllTraced measures what reportd's instrumentation
// costs a sweep and asserts its bound: the compiled sweep bare, and
// with everything reportd attaches to its verifier — verify.Metrics, a
// sampling tracer (verify 1-in-1024, compile 1-in-16, the reportd
// defaults), a heavy-hitter profiler and the shard fan-out metrics —
// alternate in one process, whichever went second going first in the
// next pair, for at least thirty pairs, each sweep after a collection
// so none pays for its predecessor's garbage. The median of the pairs'
// instrumented/bare − 1 is reported as overhead-frac and must stay
// within maxInstrumentationOverhead, or the benchmark fails; ns/op and
// routes/s are the median instrumented sweep.
func BenchmarkVerifyAllTraced(b *testing.B) {
	f := getFixture(b)
	bare := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
	v := verify.New(f.sys.DB, f.sys.Rels, verify.Config{})
	reg := telemetry.NewRegistry("bench-traced")
	tr := trace.New(trace.Config{Sample: map[string]int{"verify": 1024, "compile": 16}})
	prof := verify.NewProfiler(64)
	prof.Register(tr)
	m := verify.NewMetrics(reg)
	v.SetMetrics(m)
	v.SetTracer(tr)
	v.SetProfiler(prof)
	v.SetShardMetrics(shard.NewMetrics(reg))
	sweep := func(v *verify.Verifier) time.Duration {
		runtime.GC()
		t0 := time.Now()
		if len(v.VerifyAll(f.routes, 0)) != len(f.routes) {
			b.Fatal("missing reports")
		}
		return time.Since(t0)
	}
	sweep(bare)
	sweep(v)
	pairs := max(b.N, 30)
	traced, fracs := make([]time.Duration, pairs), make([]float64, pairs)
	for i := range pairs {
		var base time.Duration
		if i%2 == 0 {
			base, traced[i] = sweep(bare), sweep(v)
		} else {
			traced[i], base = sweep(v), sweep(bare)
		}
		fracs[i] = float64(traced[i])/float64(base) - 1
	}
	overhead, op := median(fracs), median(traced)
	b.ReportMetric(float64(op), "ns/op")
	b.ReportMetric(float64(len(f.routes))/op.Seconds(), "routes/s")
	b.ReportMetric(overhead, "overhead-frac")
	if len(prof.SlowRoutes.Top(1)) == 0 {
		b.Fatal("profiler saw no routes")
	}
	if m.RoutesVerified.Value() == 0 {
		b.Fatal("metrics saw no routes")
	}
	if overhead > maxInstrumentationOverhead {
		b.Fatalf("instrumented sweep costs %+.1f%% over bare (median of %d pairs), want <= %.0f%%",
			100*overhead, pairs, 100*maxInstrumentationOverhead)
	}
}
