package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/render"
	"rpslyzer/internal/verify"
)

// TestReplayJournalSeesSemanticDeltas replays a journal that changes no
// route object — one aut-num loses its import rules — and requires the
// step to dirty routes. The dirtying rules diff each touched object
// between the database before and after the journal, so a replay that
// hands Reverify one database for both (as -changed did when it took a
// key list) reports 0 routes for every key kind but prefix:.
func TestReplayJournalSeesSemanticDeltas(t *testing.T) {
	sys, err := core.BuildSynthetic(core.Options{Seed: 3, ASes: 150})
	if err != nil {
		t.Fatal(err)
	}
	routes := sys.CollectRoutes(3, 3)
	var target *ir.AutNum
	for _, r := range routes {
		if r.HasASSet || len(r.Path) <= 1 {
			continue
		}
		for _, asn := range r.Path {
			if an, ok := sys.DB.AutNum(asn); ok && len(an.Imports) > 0 {
				target = an
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no path AS with import rules in the synthetic corpus")
	}
	stripped := *target
	stripped.Imports = nil
	var object strings.Builder
	render.AutNum(&object, &stripped)
	// The journal continues from serial 6: the replay takes the dumps to
	// stand wherever the file picks up.
	path := filepath.Join(t.TempDir(), "000001."+target.Source+".nrtm")
	if err := nrtm.WriteJournalFile(path, &nrtm.Journal{Registry: target.Source, First: 7, Last: 7,
		Ops: []nrtm.Op{{Serial: 7, Action: nrtm.OpAdd, Object: object.String()}}}); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := replayJournal(&out, path, sys.DB, sys.Rels, verify.Config{}, routes); err != nil {
		t.Fatal(err)
	}
	field := func(pattern string) int {
		t.Helper()
		m := regexp.MustCompile(pattern).FindSubmatch(out.Bytes())
		if m == nil {
			t.Fatalf("no %q in output:\n%s", pattern, out.String())
		}
		n, err := strconv.Atoi(string(m[1]))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	key := fmt.Sprintf("aut-num:AS%d", uint32(target.ASN))
	if !strings.Contains(out.String(), "\n  "+key+"\n") {
		t.Errorf("touched key %s not listed:\n%s", key, out.String())
	}
	if n := field(`invalidated programs: (\d+)`); n == 0 {
		t.Errorf("no program invalidated:\n%s", out.String())
	}
	dirty, total := field(`re-verified (\d+) of \d+ routes`), field(`re-verified \d+ of (\d+) routes`)
	if dirty == 0 || dirty >= total || total != len(routes) {
		t.Errorf("re-verified %d of %d routes (corpus %d), want a non-empty strict subset:\n%s", dirty, total, len(routes), out.String())
	}
	if n := field(`affected ASes: (\d+)`); n == 0 {
		t.Errorf("no affected AS:\n%s", out.String())
	}
}
