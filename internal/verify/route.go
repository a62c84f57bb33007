package verify

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/shard"
)

// RouteReport is the verification result for one BGP route: two checks
// (export and import) per adjacent AS pair, ordered from the origin
// side like the paper's Appendix C printout.
type RouteReport struct {
	Route  bgpsim.Route `json:"-"`
	Checks []Check      `json:"checks"`
	// Ignored is non-empty when the route was excluded from
	// verification ("as-set" for paths with BGP AS-sets, "single-as"
	// for collector-peer originations).
	Ignored string `json:"ignored,omitempty"`
}

// CheckMask selects which directions of an AS's checks must be
// re-evaluated when patching a route report incrementally.
type CheckMask uint8

const (
	MaskImport CheckMask = 1 << iota
	MaskExport
	MaskBoth = MaskImport | MaskExport
)

// VerifyRoute verifies one route. Prepended ASes are removed first;
// single-AS routes and AS-set routes are ignored, as in the paper
// (0.06% and 0.03% of routes respectively).
func (v *Verifier) VerifyRoute(route bgpsim.Route) RouteReport { return v.verifyOne(route, nil, nil) }

// PatchRoute re-evaluates only the checks of old whose evaluating AS
// (ctx.self) appears in dirty with the check's direction set, copying
// every other check unchanged. Each check reads the database solely
// through its self (the aut-num lookup, the compiled program, the
// safelist maps), so a delta bounded to specific selves and directions
// leaves the other checks' bytes untouched. An old report whose shape
// does not line up with the pair walk is re-verified in full.
func (v *Verifier) PatchRoute(route bgpsim.Route, old RouteReport, dirty map[ir.ASN]CheckMask) RouteReport {
	return v.verifyOne(route, &old, dirty)
}

// verifyOne runs verifyRoute on a single-route arena of its own.
func (v *Verifier) verifyOne(route bgpsim.Route, old *RouteReport, dirty map[ir.ASN]CheckMask) RouteReport {
	a := &reportArena{}
	defer a.flush(v)
	return v.verifyRoute(route, a, nil, old, dirty)
}

// verifyRoute is the metering and tracing envelope around walkPairs,
// shared by every entry point. It makes the one sampling decision per
// route, on a counter the arena owns: one route in the profiler's
// period is timed — once, for RouteSeconds and the route sketches, and
// check by check inside walkPairs for CheckSeconds, ProgramSeconds and
// HotPrograms, all weighted by that one period — and one in the
// tracer's "verify" period leaves a verify-route span. Other routes
// read no clock, build no key and touch no shared memory: everything
// counted lands in the arena's tally, flushed by the goroutine that
// owns it.
func (v *Verifier) verifyRoute(route bgpsim.Route, a *reportArena, dst []Check, old *RouteReport, dirty map[ir.ASN]CheckMask) RouteReport {
	n := a.routeOps
	a.routeOps++
	a.timed = (v.metrics != nil || v.profiler != nil) && n%v.profiler.routePeriod() == 0
	traced := v.tracePeriod != 0 && n%v.tracePeriod == 0
	var t0 time.Time
	if a.timed || traced {
		t0 = time.Now()
	}
	rep := v.walkPairs(route, a, dst, old, dirty)
	if a.timed {
		d := time.Since(t0)
		if m := v.metrics; m != nil {
			m.RouteSeconds.Observe(d.Seconds())
		}
		v.profiler.observeRoute(&route, &rep, d)
	}
	if rep.Ignored != "" {
		a.ignored++
	} else {
		a.routes++
	}
	if a.routes+a.ignored >= tallyFlushRoutes {
		a.flush(v)
	}
	if traced {
		tsp := v.tracer.StartSampled("verify", "verify-route", t0).
			Set("prefix", route.Prefix.String()).
			SetInt("path_len", int64(len(route.Path))).
			SetInt("checks", int64(len(rep.Checks)))
		if rep.Ignored != "" {
			tsp.Set("ignored", rep.Ignored)
		}
		tsp.End()
	}
	return rep
}

// walkPairs is the paper's Section 5 procedure: walk the adjacent AS
// pairs of the prepend-deduplicated path from the origin side and run
// the exporter's export check and the importer's import check on each.
// A full verification treats every check as dirty; with old non-nil
// only the checks dirty selects are re-evaluated and the rest are
// copied from old. Checks go into dst when the driver laid the slots
// out beforehand (len(dst) == checkCount(&route)), else into arena
// storage; reasons always go through the arena.
func (v *Verifier) walkPairs(route bgpsim.Route, a *reportArena, dst []Check, old *RouteReport, dirty map[ir.ASN]CheckMask) RouteReport {
	rep := RouteReport{Route: route}
	if route.HasASSet {
		rep.Ignored = "as-set"
		return rep
	}
	a.path = dedupePrependsInto(a.path[:0], route.Path)
	path := a.path
	if len(path) <= 1 {
		rep.Ignored = "single-as"
		return rep
	}
	if old != nil && len(old.Checks) != 2*(len(path)-1) {
		old = nil
	}
	origin := path[len(path)-1]
	// One context serves every check of the route: evalCheck copies out
	// everything it keeps, so mutating the pair fields between checks is
	// safe and avoids per-check allocations.
	ctx := &a.ctx
	*ctx = evalCtx{
		pfx: route.Prefix, origin: origin, communities: route.Communities,
		scratch: ctx.scratch, arena: a,
	}
	// The check count is known up front: evaluate straight into slots.
	if rep.Checks = dst; dst == nil {
		rep.Checks = cut(&a.checks, a.block, 2*(len(path)-1))
	}
	shared := 0
	if a.share { // copy the pairs the previous route already evaluated
		shared = a.sharedPairs(&route, path)
		for k, c := range a.prevChecks[:2*shared] {
			rep.Checks[k] = c
			a.byStatus[c.Status]++
		}
		a.pairHits += int64(shared)
		a.prevPfx, a.prevComms, a.prevChecks = route.Prefix, route.Communities, rep.Checks
		a.path, a.prevPath = a.prevPath, path
	}
	// Exporter path[i+1] hands the route to importer path[i].
	for i, k := len(path)-2-shared, 2*shared; i >= 0; i, k = i-1, k+2 {
		pair := rep.Checks[k : k+2]
		exporter, importer := path[i+1], path[i]
		// Filters (in particular AS-path regexes) match the AS-path as
		// it stands at this hop: the path the exporter announces,
		// starting at the exporter and ending at the origin.
		ctx.path = path[i+1:]
		if old == nil || dirty[exporter]&MaskExport != 0 {
			// prevAS: where the exporter got the route from.
			var prevAS ir.ASN
			if i+2 < len(path) {
				prevAS = path[i+2]
			}
			ctx.self, ctx.peer, ctx.dir, ctx.prevAS = exporter, importer, ir.DirExport, prevAS
			v.checkInto(ctx, &pair[0])
		} else {
			pair[0] = old.Checks[k]
		}
		if old == nil || dirty[importer]&MaskImport != 0 {
			ctx.self, ctx.peer, ctx.dir, ctx.prevAS = importer, exporter, ir.DirImport, exporter
			v.checkInto(ctx, &pair[1])
		} else {
			pair[1] = old.Checks[k+1]
		}
	}
	return rep
}

// checkInto runs one import or export check in place, tallies its
// outcome and, on a timed route, times it for the histogram.
func (v *Verifier) checkInto(ctx *evalCtx, c *Check) {
	a := ctx.arena
	if m := v.metrics; m != nil && a.timed {
		t0 := time.Now()
		v.evalCheck(ctx, c)
		m.CheckSeconds.ObserveSince(t0)
	} else {
		v.evalCheck(ctx, c)
	}
	a.byStatus[c.Status]++
}

// evalCheck runs one import or export check for an AS pair, applying
// the full classification ladder, writing into c.
func (v *Verifier) evalCheck(ctx *evalCtx, c *Check) {
	*c = Check{Dir: ctx.dir}
	if ctx.dir == ir.DirExport {
		c.From, c.To = ctx.self, ctx.peer
	} else {
		c.From, c.To = ctx.peer, ctx.self
	}

	// The pair walk evaluates each AS as self twice in a row (importer
	// of one pair, exporter of the next), so a 1-entry memo on the
	// arena halves the aut-num map lookups.
	a := ctx.arena
	if !a.lastSeen || a.lastSelf != ctx.self {
		a.lastAN, a.lastOK = v.DB.AutNum(ctx.self)
		a.lastSeen, a.lastSelf = true, ctx.self
	}
	an := a.lastAN
	if !a.lastOK {
		c.Status = Unrecorded
		c.Reasons = a.canonical([]Reason{{Kind: UnrecordedAutNum, ASN: ctx.self}}, nil)
		return
	}
	rules := an.Imports
	if ctx.dir == ir.DirExport {
		rules = an.Exports
	}
	if len(rules) == 0 {
		c.Status = v.safelist(ctx, Unrecorded, c)
		if c.Status == Unrecorded {
			c.Reasons = a.canonical([]Reason{{Kind: UnrecordedNoRules}}, nil)
		}
		return
	}

	var best Status
	var reasons []Reason
	if v.useInterp {
		best, reasons = v.interpRules(rules, ctx)
	} else {
		best, reasons = v.execAutNum(an, ctx)
	}
	if best == Verified {
		c.Status = Verified
		return
	}
	// Safelist checks only improve on Unverified (the ladder places
	// them after Relaxed); a safelisted check keeps the mismatch
	// diagnostics ahead of the safelist reason.
	if best == Unverified {
		best = v.safelist(ctx, best, c)
	}
	c.Status = best
	c.Reasons = a.dedupReasons(reasons, c.Reasons)
}

// safelist applies the Section 5.1.2 safelisted-relationship checks in
// order; it returns Safelisted (appending the matching reason to the
// check) or the provided fallback status.
//
// Note the paper's ladder places Unrecorded before Safelisted; the
// no-rules unrecorded case therefore stays Unrecorded. Exception: the
// paper's Appendix C example shows uphill exports with no matching
// rules still reported with the safelist item, so safelist reasons are
// also attached when they explain an unrecorded hop — but the status
// remains governed by the ladder.
func (v *Verifier) safelist(ctx *evalCtx, fallback Status, c *Check) Status {
	if fallback != Unverified || v.cfg.Strict {
		return fallback
	}
	// Only Provider Policies: the AS defines rules only for its
	// providers; safelist imports from customers and peers.
	if ctx.dir == ir.DirImport && v.d.onlyProviderPolicies[ctx.self] {
		rel := v.Rels.Rel(ctx.peer, ctx.self)
		if rel == asrel.Customer || rel == asrel.Peer {
			c.Reasons = ctx.arena.canonical([]Reason{{Kind: SpecOnlyProviderPolicies}}, nil)
			return Safelisted
		}
	}
	// Tier-1 peering.
	if v.Rels.IsTier1(ctx.self) && v.Rels.IsTier1(ctx.peer) {
		c.Reasons = ctx.arena.canonical([]Reason{{Kind: SpecTier1Pair}}, nil)
		return Safelisted
	}
	// Uphill customer-provider propagation: the exporter is a customer
	// of the importer. The origin's own export is deliberately NOT
	// safelisted (Appendix C reports it as BadExport): the first-hop
	// export is where filtering is most effective against leaks and
	// hijacks, so whitewashing it would defeat verification.
	var exporter, importer ir.ASN
	if ctx.dir == ir.DirExport {
		exporter, importer = ctx.self, ctx.peer
		if exporter == ctx.origin {
			return fallback
		}
	} else {
		exporter, importer = ctx.peer, ctx.self
	}
	if v.Rels.Rel(exporter, importer) == asrel.Customer {
		c.Reasons = ctx.arena.canonical([]Reason{{Kind: SpecUphill}}, nil)
		return Safelisted
	}
	return fallback
}

// dedupePrependsInto appends p to out with consecutive duplicate ASes
// (prepending) removed.
func dedupePrependsInto(out, p []ir.ASN) []ir.ASN {
	for i, a := range p {
		if i > 0 && a == p[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// partitions is the bulk drivers' fan-out: Config.Shards when set,
// else the caller's worker count (0 means GOMAXPROCS).
func (v *Verifier) partitions(workers int) int {
	if v.cfg.Shards > 0 {
		return v.cfg.Shards
	}
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// routeShard maps a route to the partition owning its origin AS. The
// origin is the last path element even before prepend deduplication,
// so no allocation is needed to route.
func routeShard(r *bgpsim.Route, n int) int {
	if len(r.Path) == 0 {
		return 0
	}
	return shard.Of(r.Path[len(r.Path)-1], n)
}

// sweep is the bulk drivers' scatter: route indexes bucket by the
// stable origin-AS hash (the partition the sharded irr.Database uses,
// so a partition's origin checks hit its home route part, and equal
// sharing keys always meet) into Config.Shards partitions, or workers
// partitions when Shards is unset (0 means GOMAXPROCS). Each non-empty
// partition, on its own goroutine, hands layout its indexes in input
// order, sorts them into sharing order, and runs each on them with its
// own sharing arena, whose tally it flushes at the end. A driver with a
// layout keeps every report, so its arenas store equal reason lists once.
func (v *Verifier) sweep(routes []bgpsim.Route, workers int, layout func(idxs []int32), each func(a *reportArena, i int32)) {
	t0 := time.Now()
	n := v.partitions(workers)
	buckets := make([][]int32, n)
	for i := range routes {
		s := routeShard(&routes[i], n)
		buckets[s] = append(buckets[s], int32(i))
	}
	var wg sync.WaitGroup
	for _, idxs := range buckets {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(idxs []int32) {
			defer wg.Done()
			if layout != nil {
				layout(idxs)
			}
			slices.SortFunc(idxs, func(x, y int32) int {
				return compareForSharing(&routes[x], &routes[y])
			})
			a := newBulkArena()
			if layout != nil {
				a.canon = make(map[uint64]canonList)
			}
			for _, i := range idxs {
				each(a, i)
			}
			a.flush(v)
		}(idxs)
	}
	wg.Wait()
	v.shardMetrics.ObserveFanout(time.Since(t0).Seconds())
}

// VerifyAll verifies routes and returns reports in input order, over
// sweep's partitions. Reports are byte-identical at any partition
// count. Each partition evaluates its routes in sharing order but lays
// their checks out in input order, in one exact-size allocation, so
// whoever walks the reports afterwards walks memory forwards.
func (v *Verifier) VerifyAll(routes []bgpsim.Route, workers int) []RouteReport {
	reports := make([]RouteReport, len(routes))
	v.sweep(routes, workers, func(idxs []int32) {
		total := 0
		for _, i := range idxs {
			total += checkCount(&routes[i])
		}
		slots := make([]Check, total)
		for _, i := range idxs {
			n := checkCount(&routes[i])
			reports[i].Checks, slots = slots[:n:n], slots[n:]
		}
	}, func(a *reportArena, i int32) {
		reports[i] = v.verifyRoute(routes[i], a, reports[i].Checks, nil, nil)
	})
	return reports
}

// VerifyStream verifies routes over the same partitions as VerifyAll
// and hands each report to sink as soon as it is ready. Reports arrive
// in arbitrary order; VerifyStream serializes the calls to sink. A
// partition keeps no more of a sent report than the block it was cut
// from, so a sink that drops reports streams in flat memory.
func (v *Verifier) VerifyStream(routes []bgpsim.Route, workers int, sink func(RouteReport)) {
	// Room for a few finished reports per partition, so a partition
	// keeps verifying while the sink is busy with another's report.
	out := make(chan RouteReport, 4*v.partitions(workers))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for rep := range out {
			sink(rep)
		}
	}()
	v.sweep(routes, workers, nil, func(a *reportArena, i int32) {
		out <- v.verifyRoute(routes[i], a, nil, nil, nil)
	})
	close(out)
	<-done
}
