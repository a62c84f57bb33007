package nrtm_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/telemetry"
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
	return core.ParseDumps(core.LoadOptions{}, dumps...)
}

func synthIR(t *testing.T, ases int) *ir.IR {
	t.Helper()
	sys, err := core.BuildSynthetic(core.Options{Seed: 7, ASes: ases})
	if err != nil {
		t.Fatal(err)
	}
	return sys.IR
}

// TestMirrorSerialGap proves a non-contiguous journal is rejected
// without touching the published snapshot, and that the operator
// escape hatch — Resync — restores service and is counted.
func TestMirrorSerialGap(t *testing.T) {
	gen := synthIR(t, 120)
	mir := nrtm.NewMirrorDB(irr.New(gen), map[string]uint64{"RADB": 10}, nil)
	before := mir.DB()

	obj := "aut-num:        AS64999\nas-name:        GAP\nsource:         RADB\n"
	j := &nrtm.Journal{Registry: "RADB", First: 12, Last: 12,
		Ops: []nrtm.Op{{Serial: 12, Action: nrtm.OpAdd, Object: obj}}}
	_, err := mir.ApplyAllKeys([]*nrtm.Journal{j})
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
	mir := nrtm.NewMirrorDB(irr.New(gen), nil, nil)
	before := mir.DB()

	good := "aut-num:        AS64999\nas-name:        OK\nsource:         RADB\n"
	bad := "not an rpsl object at all\n"
	j := &nrtm.Journal{Registry: "RADB", First: 1, Last: 2, Ops: []nrtm.Op{
		{Serial: 1, Action: nrtm.OpAdd, Object: good},
		{Serial: 2, Action: nrtm.OpAdd, Object: bad},
	}}
	if _, err := mir.ApplyAllKeys([]*nrtm.Journal{j}); err == nil {
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

// TestApplyRejectedObjectLikeDump applies a journal of two objects the
// parser rejects, a route whose prefix is no prefix and an aut-num whose
// name is no AS number, then a good object in the registry's next
// journal. Both journals apply and the serials advance, with no resync:
// like a dump parse of the same objects, the mirror counts the rejected
// two in the class census, indexes neither and touches no key.
func TestApplyRejectedObjectLikeDump(t *testing.T) {
	route := "route:          192.0.2.0/33\norigin:         AS1\nsource:         RADB\n"
	autnum := "aut-num:        ASX1\nas-name:        BAD\nsource:         RADB\n"
	good := "aut-num:        AS1\nas-name:        GOOD\nsource:         RADB\n"
	m := nrtm.NewMetrics(telemetry.NewRegistry("t"))
	mir := nrtm.NewMirrorDB(irr.New(ir.New()), nil, m)
	keys, err := mir.ApplyAllKeys([]*nrtm.Journal{{Registry: "RADB", First: 1, Last: 2, Ops: []nrtm.Op{
		{Serial: 1, Action: nrtm.OpAdd, Object: route},
		{Serial: 2, Action: nrtm.OpAdd, Object: autnum},
	}}})
	if err != nil {
		t.Fatalf("journal of rejected objects: %v", err)
	}
	if len(keys) != 0 {
		t.Errorf("rejected objects touched %v, want no key", keys)
	}
	if _, err := mir.ApplyAllKeys([]*nrtm.Journal{{Registry: "RADB", First: 3, Last: 3, Ops: []nrtm.Op{
		{Serial: 3, Action: nrtm.OpAdd, Object: good},
	}}}); err != nil {
		t.Fatalf("the next journal: %v", err)
	}
	if got := mir.Serials()["RADB"]; got != 3 {
		t.Errorf("RADB serial = %d, want 3", got)
	}
	got := mir.DB().IR
	want := parser.ParseText(route+"\n"+autnum+"\n"+good, "RADB")
	if !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("Counts = %v, a dump parse of the same objects counts %v", got.Counts, want.Counts)
	}
	if len(got.Routes) != 0 || len(got.AutNums) != 1 || got.AutNums[1] == nil {
		t.Errorf("indexed %d routes and aut-nums %v, want no route and AS1", len(got.Routes), got.AutNums)
	}
	if n := m.RejectedObjects.Value(); n != 2 {
		t.Errorf("rpslyzer_nrtm_rejected_objects_total = %d, want 2", n)
	}
}
