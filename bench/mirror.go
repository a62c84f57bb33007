package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// The first mirrorWarmup journal files are published untimed, the next
// mirrorTimed are the operations, and the rest are applied, untimed and
// unpublished, for the output checks. The timed set is fixed, not cut
// off by the clock, so that a change is measured over the very files
// its parent was, however fast either is.
const (
	mirrorWarmup = 2
	mirrorTimed  = 8
)

// runMirrorChurn applies the journal files one by one as nrtm.Poll's
// applyOne and reportd's OnDelta hook do, while one open-loop client
// keeps reading.
func runMirrorChurn(cfg runConfig, rec *recorder, res *runResult) error {
	t0 := time.Now()
	s, err := startReportd(cfg.Dir, nil, -1, -1)
	if err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(cfg.Dir, "journals", "*.nrtm"))
	if err != nil {
		return err
	}
	sort.Strings(files)
	c, err := dial(s.base)
	if err != nil {
		return err
	}
	defer c.close()
	tracer := trace.New(trace.Config{})

	var counts struct{ ops, keys, dirty, patched, fallbacks int }
	// apply does everything but publish; the journals after the timed
	// ones still go through it, so that the final reports and the counts
	// cover the whole directory.
	apply := func(path string, rec *recorder, root, run int) error {
		sp := rec.start("nrtm.read", root, run)
		j, err := nrtm.ReadJournalFile(path)
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("nrtm.apply", root, run)
		keys, err := s.mir.ApplyAllKeys([]*nrtm.Journal{j})
		rec.end(sp)
		if err != nil {
			return err
		}
		sp = rec.start("verify.reverify", root, run)
		span := tracer.Start("rebuild", "reverify")
		rr := s.inc.Reverify(s.mir.DB(), keys, s.workers, span)
		span.End()
		rec.end(sp)
		counts.ops += len(j.Ops)
		counts.keys += len(keys)
		counts.dirty += rr.Routes
		counts.patched += rr.Patched
		if rr.Full {
			counts.fallbacks++
		}
		return nil
	}

	// publish is one journal file from disk to served snapshot.
	served := s.store.Swaps()
	publish := func(path string, rec *recorder, root, i int) error {
		if err := apply(path, rec, root, i); err != nil {
			res.fail("%s: %v", filepath.Base(path), err)
			return nil
		}
		sp := rec.start("reportstore.build", root, i)
		snap := reportstore.BuildSnapshot(s.inc.Reports())
		rec.end(sp)
		sp = rec.start("reportstore.swap", root, i)
		serial := s.store.Swap(snap)
		rec.end(sp)
		sp = rec.start("api.summary", root, i)
		sum, err := summary(c)
		rec.end(sp)
		if err != nil {
			return err
		}
		served++
		if serial != served || sum.Serial != served {
			res.fail("%s: swapped serial %d, served serial %d, want %d", filepath.Base(path), serial, sum.Serial, served)
		}
		return nil
	}
	// The first journals after a start-up grow the heap to hold two
	// snapshots at once and run a third slower than the rest; a daemon
	// pays that once, not per journal, so they are applied before the
	// clock starts.
	warm := min(mirrorWarmup, len(files)-1)
	if cfg.Smoke {
		warm = 0
	}
	for _, path := range files[:warm] {
		if err := publish(path, nil, -1, -1); err != nil {
			return err
		}
	}
	files = files[warm:]
	res.SetupS = time.Since(t0).Seconds()

	reader := startReader(s.base, populationsOf(s.routes), cfg.Seed, rec)
	ms, err := repeat(cfg, rec, res, min(mirrorTimed, len(files)), func(i, root int) (func() error, error) {
		return nil, publish(files[i], rec, root, i)
	})
	reader.stop(res)
	if err != nil {
		return err
	}
	res.setOps(ms)
	res.layer("nrtm.journal_to_swap_p90_s", res.Ops.P90/1e3)
	res.layer("nrtm.journal_to_swap_max_s", res.Ops.Max/1e3)

	for _, path := range files[len(ms):] {
		if err := apply(path, nil, -1, -1); err != nil {
			res.fail("%s: %v", filepath.Base(path), err)
		}
	}
	res.check(counts.fallbacks == 0, "%d journals fell back to a full re-verification", counts.fallbacks)
	res.layer("nrtm.ops", float64(counts.ops))
	res.layer("depgraph.touched_keys", float64(counts.keys))
	res.layer("verify.dirty_routes", float64(counts.dirty))
	res.layer("verify.patched_routes", float64(counts.patched))
	res.layer("verify.full_fallbacks", float64(counts.fallbacks))

	// Incremental re-verification must end where a verifier that never
	// saw the journals, only the mirrored database, ends.
	fresh := verify.New(s.mir.DB(), s.rels, verify.Config{Eval: "compiled", Shards: runtime.GOMAXPROCS(0)}).
		VerifyAll(s.routes, s.workers)
	drift := 0
	for i := range fresh {
		if !equalReports(&fresh[i], &s.inc.Reports()[i]) {
			drift++
		}
	}
	res.layer("verify.drift_routes", float64(drift))
	res.check(drift == 0, "%d of %d incremental reports differ from a from-scratch verification", drift, len(fresh))
	if cfg.Digest {
		d, err := reportsDigest(s.inc.Reports())
		if err != nil {
			return err
		}
		res.digest("mirror-churn-2k.reports", d)
	}
	return s.stop()
}

func equalReports(a, b *verify.RouteReport) bool {
	if a.Ignored != b.Ignored || len(a.Checks) != len(b.Checks) {
		return false
	}
	for i := range a.Checks {
		x, y := &a.Checks[i], &b.Checks[i]
		if x.From != y.From || x.To != y.To || x.Dir != y.Dir || x.Status != y.Status || len(x.Reasons) != len(y.Reasons) {
			return false
		}
		for j := range x.Reasons {
			if x.Reasons[j] != y.Reasons[j] {
				return false
			}
		}
	}
	return true
}

// reader is the open-loop client beside the mirror: 100 requests a
// second over one connection, each timed from the moment it was due.
type reader struct {
	quit chan struct{}
	wg   sync.WaitGroup
	loop openLoop
	bad  []string
	err  error
}

const (
	readerInterval = 10 * time.Millisecond
	lateTolerance  = time.Millisecond
)

func startReader(base string, pop populations, seed int64, rec *recorder) *reader {
	r := &reader{quit: make(chan struct{}), loop: openLoop{interval: readerInterval}}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		c, err := dial(base)
		if err != nil {
			r.err = err
			return
		}
		defer c.close()
		w := newReaderWalker(pop, seed)
		start := time.Now()
		for {
			due := r.loop.due()
			if wait := due - time.Since(start); wait > 0 {
				select {
				case <-r.quit:
					return
				case <-time.After(wait):
				}
			}
			select {
			case <-r.quit:
				return
			default:
			}
			sent := time.Since(start)
			sp := rec.start("api.swap_read", -1, -1)
			path := w.next()
			code, _, err := c.get(path)
			rec.end(sp)
			if err != nil {
				r.err = err
				return
			}
			if code != http.StatusOK {
				r.bad = append(r.bad, fmt.Sprintf("%s: status %d", path, code))
			}
			r.loop.done(due, sent, time.Since(start))
		}
	}()
	return r
}

// stop ends the reader, waits for it and folds what it saw into res.
func (r *reader) stop(res *runResult) {
	close(r.quit)
	r.wg.Wait()
	res.check(r.err == nil, "open-loop reader: %v", r.err)
	res.Attempted += len(r.loop.latencies)
	for _, b := range r.bad {
		res.fail("open-loop reader: %s", b)
	}
	if len(r.loop.latencies) == 0 {
		return
	}
	us := make([]float64, len(r.loop.latencies))
	over := 0
	for i, l := range r.loop.latencies {
		us[i] = float64(l.Nanoseconds()) / 1e3
		if l > 10*time.Millisecond {
			over++
		}
	}
	sort.Float64s(us)
	p50, _ := percentile(us, 50)
	p99, _ := percentile(us, 99)
	res.layer("api.swap_read_p50_us", p50)
	res.layer("api.swap_read_p99_us", p99)
	res.layer("api.swap_read_max_us", us[len(us)-1])
	res.layer("api.swap_read_over_10ms_frac", float64(over)/float64(len(us)))
	res.layer("api.swap_read_late_frac", r.loop.lateFrac(lateTolerance))
}
