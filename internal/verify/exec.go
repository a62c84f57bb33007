package verify

import (
	"time"

	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/ir"
)

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
// direction, mirroring the interpreter's rule loop: earliest status on
// the ladder wins, Verified short-circuits, diagnostics accumulate.
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

// interpRules is the tree-walking equivalent of execAutNum
// (Config.Eval == "interp"): the reference implementation the
// differential tests hold the compiled engine to.
func (v *Verifier) interpRules(rules []ir.Rule, ctx *evalCtx) (Status, []Reason) {
	best := Unverified
	var reasons []Reason
	for i := range rules {
		st, rs := v.evalRule(&rules[i], ctx)
		if st < best {
			best = st
			if st == Verified {
				return Verified, nil
			}
		}
		reasons = append(reasons, rs...)
	}
	return best, reasons
}
