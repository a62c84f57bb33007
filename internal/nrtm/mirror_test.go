package nrtm_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/render"
)

// reparse feeds per-registry dump texts back through the parser in the
// standard IRR priority order, mimicking what a mirror client that
// fetched full dumps would hold.
func reparse(texts map[string]string) *ir.IR {
	var dumps []core.Dump
	for _, name := range irrgen.IRRs {
		if text, ok := texts[name]; ok {
			dumps = append(dumps, core.Dump{Name: name, R: strings.NewReader(text)})
		}
	}
	return core.ParseDumps(dumps...)
}

func synthIR(t *testing.T, ases int) *ir.IR {
	t.Helper()
	sys, err := core.BuildSynthetic(core.Options{Seed: 7, ASes: ases})
	if err != nil {
		t.Fatal(err)
	}
	return sys.IR
}

// TestMirrorEquivalence is the subsystem's core property: starting
// from a parsed snapshot A and applying journal(A→B) must yield a
// database indistinguishable from parsing snapshot B directly. It runs
// three consecutive evolution steps over the full 13-registry
// synthetic universe, checking canonical render equality per registry
// after every step.
func TestMirrorEquivalence(t *testing.T) {
	gen := synthIR(t, 250)
	mir := nrtm.NewMirror(reparse(render.IR(gen)), nil, nil)

	cfg := irrgen.EvolveConfig{Seed: 7, PolicyChurnFrac: 0.02, SetChurnFrac: 0.02,
		RouteAddFrac: 0.01, RouteWithdrawFrac: 0.01}
	serials := make(map[string]uint64)
	prev := gen
	for step := 1; step <= 3; step++ {
		next := irrgen.Evolve(prev, step, cfg)
		diff := evolve.Compare(prev, next)
		if diff.Empty() {
			t.Fatalf("step %d: evolution produced no changes", step)
		}
		journals := diff.ToJournals(prev, next, serials)
		if len(journals) == 0 {
			t.Fatalf("step %d: no journals from non-empty diff %s", step, diff.Summary())
		}
		for _, j := range journals {
			if err := mir.ApplyAll([]*nrtm.Journal{j}); err != nil {
				t.Fatalf("step %d: apply %s %d-%d: %v", step, j.Registry, j.First, j.Last, err)
			}
		}
		got := render.IR(mir.DB().IR)
		want := render.IR(reparse(render.IR(next)).Clone())
		for _, reg := range irrgen.IRRs {
			if got[reg] != want[reg] {
				t.Fatalf("step %d: registry %s diverged:\n%s",
					step, reg, firstDiff(got[reg], want[reg]))
			}
		}
		prev = next
	}
	for reg, want := range serials {
		if got := mir.Serials()[reg]; got != want {
			t.Errorf("serial for %s = %d, want %d", reg, got, want)
		}
	}
}

func firstDiff(got, want string) string {
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Sprintf("line %d:\n  got:  %q\n  want: %q", i+1, gl[i], wl[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d lines", len(gl), len(wl))
}

// TestMirrorSerialGap proves a non-contiguous journal is rejected
// without touching the published snapshot, and that the operator
// escape hatch — Resync — restores service and is counted.
func TestMirrorSerialGap(t *testing.T) {
	gen := synthIR(t, 120)
	mir := nrtm.NewMirror(gen, map[string]uint64{"RADB": 10}, nil)
	before := mir.DB()

	obj := "aut-num:        AS64999\nas-name:        GAP\nsource:         RADB\n"
	j := &nrtm.Journal{Registry: "RADB", First: 12, Last: 12,
		Ops: []nrtm.Op{{Serial: 12, Action: nrtm.OpAdd, Object: obj}}}
	err := mir.ApplyAll([]*nrtm.Journal{j})
	var gap *nrtm.SerialGapError
	if !errors.As(err, &gap) {
		t.Fatalf("gap apply error = %v, want SerialGapError", err)
	}
	if gap.Registry != "RADB" || gap.Have != 10 || gap.First != 12 {
		t.Errorf("gap = %+v", gap)
	}
	if mir.DB() != before {
		t.Error("failed apply must not publish a new snapshot")
	}
	if mir.Serials()["RADB"] != 10 {
		t.Errorf("serial moved to %d on failed apply", mir.Serials()["RADB"])
	}

	mir.Resync(gen, map[string]uint64{"RADB": 12})
	if mir.Resyncs() != 1 {
		t.Errorf("resyncs = %d, want 1", mir.Resyncs())
	}
	if mir.DB() == before {
		t.Error("resync must publish a fresh snapshot")
	}
	if mir.Serials()["RADB"] != 12 {
		t.Errorf("serial after resync = %d, want 12", mir.Serials()["RADB"])
	}
}

// TestMirrorApplyAtomic proves a journal that fails mid-way (garbage
// object after a valid op) publishes nothing at all.
func TestMirrorApplyAtomic(t *testing.T) {
	gen := synthIR(t, 120)
	mir := nrtm.NewMirror(gen, nil, nil)
	before := mir.DB()

	good := "aut-num:        AS64999\nas-name:        OK\nsource:         RADB\n"
	bad := "not an rpsl object at all\n"
	j := &nrtm.Journal{Registry: "RADB", First: 1, Last: 2, Ops: []nrtm.Op{
		{Serial: 1, Action: nrtm.OpAdd, Object: good},
		{Serial: 2, Action: nrtm.OpAdd, Object: bad},
	}}
	if err := mir.ApplyAll([]*nrtm.Journal{j}); err == nil {
		t.Fatal("apply with garbage op should fail")
	}
	if mir.DB() != before {
		t.Error("partial apply must not publish")
	}
	if _, ok := mir.DB().IR.AutNums[64999]; ok {
		t.Error("op from failed journal leaked into the snapshot")
	}
	if mir.Serials()["RADB"] != 0 {
		t.Errorf("serial advanced to %d on failed apply", mir.Serials()["RADB"])
	}
}

// TestJournalFileReplayMatchesDirect round-trips journals through the
// on-disk format before applying, covering the exact path whoisd's
// mirror loop uses (write file → read file → apply).
func TestJournalFileReplayMatchesDirect(t *testing.T) {
	gen := synthIR(t, 120)
	cfg := irrgen.EvolveConfig{Seed: 3}
	next := irrgen.Evolve(gen, 1, cfg)
	diff := evolve.Compare(gen, next)
	journals := diff.ToJournals(gen, next, nil)
	if len(journals) == 0 {
		t.Skip("no churn at this size/seed")
	}

	direct := nrtm.NewMirror(reparse(render.IR(gen)), nil, nil)
	viaDisk := nrtm.NewMirror(reparse(render.IR(gen)), nil, nil)
	dir := t.TempDir()
	for i, j := range journals {
		if err := direct.ApplyAll([]*nrtm.Journal{j}); err != nil {
			t.Fatal(err)
		}
		path := fmt.Sprintf("%s/%06d.%s.nrtm", dir, i, j.Registry)
		if err := nrtm.WriteJournalFile(path, j); err != nil {
			t.Fatal(err)
		}
		rj, err := nrtm.ReadJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := viaDisk.ApplyAll([]*nrtm.Journal{rj}); err != nil {
			t.Fatal(err)
		}
	}
	got, want := render.IR(viaDisk.DB().IR), render.IR(direct.DB().IR)
	for reg := range want {
		if got[reg] != want[reg] {
			t.Fatalf("registry %s diverged after disk round-trip", reg)
		}
	}
}
