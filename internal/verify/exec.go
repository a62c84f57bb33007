package verify

import (
	"time"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// evalCtx carries the route context through rule evaluation.
type evalCtx struct {
	// pfx is the route prefix P.
	pfx prefix.Prefix
	// path is the prepend-deduplicated AS-path, collector side first,
	// origin last.
	path []ir.ASN
	// origin is path's last AS.
	origin ir.ASN
	// self is the AS whose rule is being evaluated; peer is the other
	// AS of the pair (resolves the PeerAS keyword).
	self, peer ir.ASN
	// dir is the rule direction being checked.
	dir ir.Direction
	// prevAS is the AS the route came from before reaching self (the
	// next AS towards the origin); 0 when self is the origin. Used by
	// the Export Self relaxation.
	prevAS ir.ASN
	// communities carries the route's observed community attributes
	// for the optional community-interpretation mode.
	communities []bgpsim.Community
	// scratch is a reusable reason accumulator: execAutNum appends
	// into it and the arena's dedupReasons copies out, so the buffer
	// (and its grown capacity) survives across the checks of a route.
	scratch []Reason
	// arena backs the check's retained reason slices and carries the
	// per-goroutine memos; never nil.
	arena *reportArena
	// trace, while a bulk arena evaluates a pair for its memo, collects
	// the prefix tests the pair runs; nil otherwise.
	trace *[]traceStep
}

// program returns the compiled program for an aut-num, compiling and
// caching it on first use. Concurrent first uses may compile twice;
// LoadOrStore keeps exactly one program, and programs are pure, so the
// duplicate work is harmless. When a dependency graph is attached
// (SetDepGraph), compilation records every object the program resolved
// and registers the key set — the loser of a concurrent compile skips
// registration, since the winner records an identical set.
func (v *Verifier) program(an *ir.AutNum) (prog *autnumProg, cached bool) {
	d := v.d
	if p, ok := d.programs.Load(an); ok {
		return p.(*autnumProg), true
	}
	tsp := v.tracer.Start("compile", "compile-autnum")
	var rec *depgraph.Recorder
	if v.graph != nil {
		rec = depgraph.NewRecorder()
		// Every program depends on its own aut-num object: a changed or
		// deleted aut-num must invalidate it.
		rec.Add(depgraph.AutNumKey(an.ASN))
	}
	p := v.compileAutNum(an, rec)
	if tsp != nil {
		tsp.SetInt("as", int64(uint32(an.ASN))).
			SetInt("rules", int64(len(an.Imports)+len(an.Exports)))
		tsp.End()
	}
	if actual, loaded := d.programs.LoadOrStore(an, p); loaded {
		return actual.(*autnumProg), false
	}
	if v.graph != nil {
		v.graph.SetProgram(an.ASN, rec.Keys())
	}
	v.metrics.programCompiled(d.progCount.Add(1))
	return p, false
}

// execAutNum runs the aut-num's compiled rule programs for the check
// direction: earliest status on the ladder wins, Verified
// short-circuits, diagnostics accumulate (evalCheck sorts and
// de-duplicates them). internal/oracle's reference runs the same rule
// loop over the ir trees, and C2 holds the two to equal reports.
func (v *Verifier) execAutNum(an *ir.AutNum, ctx *evalCtx) (Status, []Reason) {
	// The arena memoizes the last program looked up: consecutive checks
	// share their self AS, so this skips half the cache-map loads.
	a := ctx.arena
	hit := a.lastProgAN == an
	if !hit {
		a.lastProgAN = an
		a.lastProg, hit = v.program(an)
	}
	if hit {
		a.progHits++
	}
	progs := a.lastProg.imports
	if ctx.dir == ir.DirExport {
		progs = a.lastProg.exports
	}
	var t0 time.Time
	if a.timed {
		t0 = time.Now()
	}
	// Accumulate into the context's scratch buffer: the arena's
	// dedupReasons copies out, so the buffer is reused check after check.
	best, reasons := Unverified, ctx.scratch[:0]
	for _, rp := range progs {
		st, rs := rp(ctx)
		if st < best {
			if best = st; st == Verified {
				break
			}
		}
		reasons = append(reasons, rs...)
	}
	ctx.scratch = reasons
	if !t0.IsZero() {
		d := time.Since(t0)
		if m := v.metrics; m != nil {
			m.ProgramSeconds.Observe(d.Seconds())
		}
		v.profiler.observeExec(ctx.self, d)
	}
	if best == Verified {
		return Verified, nil
	}
	return best, reasons
}
