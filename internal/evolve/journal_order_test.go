package evolve_test

import (
	"strings"
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/evolve"
	"rpslyzer/internal/nrtm"
)

// TestToJournalsAddDelOrdering pins the journal op ordering contract an
// incremental consumer relies on: a modified object is emitted as a
// single ADD (replacement semantics — never DEL-then-ADD, which would
// make the object transiently unknown mid-journal and spuriously
// invalidate everything depending on it), and within each journal every
// DEL precedes every ADD.
func TestToJournalsAddDelOrdering(t *testing.T) {
	oldSnap := `aut-num: AS1
import: from AS2 accept ANY

aut-num: AS2
export: to AS1 announce ANY

as-set: AS-KEEP
members: AS1

route: 192.0.2.0/24
origin: AS1
`
	// AS1 modified, AS2 deleted, AS3 added; AS-KEEP modified; the old
	// route withdrawn and a new one added.
	newSnap := `aut-num: AS1
import: from AS3 accept ANY

aut-num: AS3
export: to AS1 announce ANY

as-set: AS-KEEP
members: AS1, AS3

route: 198.51.100.0/24
origin: AS1
`
	oldIR := core.ParseText(oldSnap, "RIPE")
	newIR := core.ParseText(newSnap, "RIPE")
	diff := evolve.Compare(oldIR, newIR)
	journals := diff.ToJournals(oldIR, newIR, nil)
	if len(journals) != 1 {
		t.Fatalf("got %d journals, want 1", len(journals))
	}
	j := journals[0]

	sawAdd := false
	adds := map[string]int{}
	dels := map[string]int{}
	for _, op := range j.Ops {
		raw, _, _ := strings.Cut(op.Object, "\n")
		// Canonical render pads attribute names; normalize whitespace so
		// keys read naturally below.
		firstLine := strings.Join(strings.Fields(raw), " ")
		if op.Action == nrtm.OpAdd {
			sawAdd = true
			adds[firstLine]++
		} else {
			if sawAdd {
				t.Errorf("DEL %q after an ADD: object %q would be transiently deleted mid-journal",
					firstLine, firstLine)
			}
			dels[firstLine]++
		}
	}

	// Modified objects: exactly one ADD, no DEL.
	for _, key := range []string{"aut-num: AS1", "as-set: AS-KEEP"} {
		if adds[key] != 1 || dels[key] != 0 {
			t.Errorf("modified %q: %d ADDs, %d DELs; want 1 ADD, 0 DELs", key, adds[key], dels[key])
		}
	}
	// Deleted and created objects appear on exactly one side.
	if dels["aut-num: AS2"] != 1 || adds["aut-num: AS2"] != 0 {
		t.Errorf("deleted aut-num: AS2: %d DELs, %d ADDs", dels["aut-num: AS2"], adds["aut-num: AS2"])
	}
	if adds["aut-num: AS3"] != 1 || dels["aut-num: AS3"] != 0 {
		t.Errorf("created aut-num: AS3: %d ADDs, %d DELs", adds["aut-num: AS3"], dels["aut-num: AS3"])
	}
	// Routes diff on identity: the withdrawn prefix is a DEL, the new
	// one an ADD.
	if dels["route: 192.0.2.0/24"] != 1 || adds["route: 198.51.100.0/24"] != 1 {
		t.Errorf("route ops wrong: dels=%v adds=%v", dels, adds)
	}

	// The journal must replay cleanly onto the old snapshot (the DEL
	// before-ADD order is what makes replacement-by-ADD legal).
	mir := nrtm.NewMirror(core.ParseText(oldSnap, "RIPE"), nil, nil)
	if err := mir.ApplyAll([]*nrtm.Journal{j}); err != nil {
		t.Fatalf("journal does not replay: %v", err)
	}
}
