package irr

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irrgen"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/rpsl"
	"rpslyzer/internal/topology"
)

// TestFlattenEdgeCases pins the flattening contract on the pathological
// set graphs the paper's census found in the wild: self-loops, mutual
// cycles, cycles with tails, and members-by-reference with absent or
// mismatched maintainers.
func TestFlattenEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		text string
		set  string
		// wantASNs is the expected flattened closure.
		wantASNs []ir.ASN
		// wantDepth counts the longest reference chain; cycles count once.
		wantDepth int
		wantLoop  bool
		// wantUnrecorded lists expected unrecorded references.
		wantUnrecorded []string
	}{
		{
			name: "self-loop-only-member",
			text: "as-set: AS-SELF\nmembers: AS-SELF\n",
			set:  "AS-SELF",
			// A set whose only member is itself flattens to nothing.
			wantASNs:  nil,
			wantDepth: 1,
			wantLoop:  true,
		},
		{
			name:      "self-loop-with-asn",
			text:      "as-set: AS-SELF\nmembers: AS7, AS-SELF\n",
			set:       "AS-SELF",
			wantASNs:  []ir.ASN{7},
			wantDepth: 1,
			wantLoop:  true,
		},
		{
			name: "mutual-cycle-union",
			text: "as-set: AS-A\nmembers: AS1, AS-B\n\n" +
				"as-set: AS-B\nmembers: AS2, AS-A\n",
			set:       "AS-A",
			wantASNs:  []ir.ASN{1, 2},
			wantDepth: 2,
			wantLoop:  true,
		},
		{
			name: "three-cycle-with-tail",
			text: "as-set: AS-A\nmembers: AS-B\n\n" +
				"as-set: AS-B\nmembers: AS-C\n\n" +
				"as-set: AS-C\nmembers: AS-A, AS-TAIL\n\n" +
				"as-set: AS-TAIL\nmembers: AS9\n",
			set:      "AS-A",
			wantASNs: []ir.ASN{9},
			// The 3-cycle counts once (3 sets) plus the tail set below it.
			wantDepth: 4,
			wantLoop:  true,
		},
		{
			name: "chain-into-cycle-depth",
			text: "as-set: AS-TOP\nmembers: AS-A\n\n" +
				"as-set: AS-A\nmembers: AS-B\n\n" +
				"as-set: AS-B\nmembers: AS-A, AS3\n",
			set:      "AS-TOP",
			wantASNs: []ir.ASN{3},
			// AS-TOP sits above the {AS-A, AS-B} cycle: 1 + 2.
			wantDepth: 3,
			// AS-TOP references a cycle but is not itself on one.
			wantLoop: false,
		},
		{
			name: "cycle-with-unrecorded-ref",
			text: "as-set: AS-A\nmembers: AS-B, AS-GHOST\n\n" +
				"as-set: AS-B\nmembers: AS-A, AS4\n",
			set:            "AS-A",
			wantASNs:       []ir.ASN{4},
			wantDepth:      2,
			wantLoop:       true,
			wantUnrecorded: []string{"AS-GHOST"},
		},
		{
			name: "mbrs-by-ref-matching-maintainer",
			text: "as-set: AS-REF\nmbrs-by-ref: MNT-GOOD\n\n" +
				"aut-num: AS10\nmember-of: AS-REF\nmnt-by: MNT-GOOD\n",
			set:       "AS-REF",
			wantASNs:  []ir.ASN{10},
			wantDepth: 1,
		},
		{
			name: "mbrs-by-ref-missing-maintainer",
			// The aut-num claims membership but its maintainer is not in
			// the set's mbrs-by-ref list: the claim is ineffective.
			text: "as-set: AS-REF\nmbrs-by-ref: MNT-OTHER\n\n" +
				"aut-num: AS10\nmember-of: AS-REF\nmnt-by: MNT-GOOD\n",
			set:       "AS-REF",
			wantASNs:  nil,
			wantDepth: 1,
		},
		{
			name: "mbrs-by-ref-absent-attribute",
			// Without mbrs-by-ref the set accepts no members by
			// reference at all.
			text: "as-set: AS-REF\nmembers: AS1\n\n" +
				"aut-num: AS10\nmember-of: AS-REF\nmnt-by: MNT-GOOD\n",
			set:       "AS-REF",
			wantASNs:  []ir.ASN{1},
			wantDepth: 1,
		},
		{
			name: "mbrs-by-ref-aut-num-without-mnt-by",
			text: "as-set: AS-REF\nmbrs-by-ref: MNT-GOOD\n\n" +
				"aut-num: AS10\nmember-of: AS-REF\n",
			set:       "AS-REF",
			wantASNs:  nil,
			wantDepth: 1,
		},
		{
			name: "mbrs-by-ref-any-accepts-unmaintained",
			text: "as-set: AS-REF\nmbrs-by-ref: ANY\n\n" +
				"aut-num: AS10\nmember-of: AS-REF\nmnt-by: MNT-WHATEVER\n",
			set:       "AS-REF",
			wantASNs:  []ir.ASN{10},
			wantDepth: 1,
		},
		{
			name: "mbrs-by-ref-joins-through-cycle",
			// An indirect member joined into one side of a cycle is
			// visible from the other side.
			text: "as-set: AS-A\nmembers: AS-B\nmbrs-by-ref: MNT-M\n\n" +
				"as-set: AS-B\nmembers: AS-A\n\n" +
				"aut-num: AS11\nmember-of: AS-A\nmnt-by: MNT-M\n",
			set:       "AS-B",
			wantASNs:  []ir.ASN{11},
			wantDepth: 2,
			wantLoop:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := dbFrom(t, tc.text)
			f, ok := db.AsSet(tc.set)
			if !ok {
				t.Fatalf("%s unrecorded", tc.set)
			}
			if len(f.ASNs) != len(tc.wantASNs) {
				t.Errorf("ASNs = %v, want %v", f.ASNs, tc.wantASNs)
			}
			for _, a := range tc.wantASNs {
				if _, ok := f.ASNs[a]; !ok {
					t.Errorf("flattened closure missing %v (got %v)", a, f.ASNs)
				}
			}
			if f.Depth != tc.wantDepth {
				t.Errorf("Depth = %d, want %d", f.Depth, tc.wantDepth)
			}
			if f.InLoop != tc.wantLoop {
				t.Errorf("InLoop = %v, want %v", f.InLoop, tc.wantLoop)
			}
			if len(f.Unrecorded) != len(tc.wantUnrecorded) {
				t.Errorf("Unrecorded = %v, want %v", f.Unrecorded, tc.wantUnrecorded)
			} else {
				for i, u := range tc.wantUnrecorded {
					if f.Unrecorded[i] != u {
						t.Errorf("Unrecorded[%d] = %q, want %q", i, f.Unrecorded[i], u)
					}
				}
			}
		})
	}
}

// TestFlattenDepthOnCyclicChains checks depth accounting when chains
// hang below cycles of different sizes: each cycle contributes its
// member count once, plus the deepest chain below it.
func TestFlattenDepthOnCyclicChains(t *testing.T) {
	// TOP -> {A <-> B} -> MID -> {C: self-loop} -> LEAF
	db := dbFrom(t, `
as-set: AS-TOP
members: AS-A

as-set: AS-A
members: AS-B

as-set: AS-B
members: AS-A, AS-MID

as-set: AS-MID
members: AS-C

as-set: AS-C
members: AS-C, AS-LEAF

as-set: AS-LEAF
members: AS1
`)
	wants := map[string]struct {
		depth int
		loop  bool
	}{
		"AS-LEAF": {1, false},
		"AS-C":    {2, true},  // self-loop counts itself once + leaf
		"AS-MID":  {3, false}, // above the self-loop
		"AS-A":    {5, true},  // 2-cycle (2) + mid (1) + c (1) + leaf (1)
		"AS-B":    {5, true},
		"AS-TOP":  {6, false},
	}
	for name, want := range wants {
		f, ok := db.AsSet(name)
		if !ok {
			t.Fatalf("%s unrecorded", name)
		}
		if f.Depth != want.depth || f.InLoop != want.loop {
			t.Errorf("%s: depth=%d loop=%v, want depth=%d loop=%v",
				name, f.Depth, f.InLoop, want.depth, want.loop)
		}
		if _, ok := f.ASNs[1]; !ok {
			t.Errorf("%s: closure should reach AS1 through the cycles", name)
		}
	}
}

// TestFullFlattenIsReflattenOfEverySet holds the one as-set kernel to
// both of its jobs. Over five generated universes and the cycle and
// unrecorded-member fixtures above, a clone re-flattened with every
// name as a seed (memoized leaves and existing entries in play) equals
// a fresh New (neither), and New's closures equal a per-set depth-first
// walk that shares no code with the kernel.
func TestFullFlattenIsReflattenOfEverySet(t *testing.T) {
	corpora := map[string]*ir.IR{
		"cycle-with-tail": dbFrom(t, "as-set: AS-A\nmembers: AS-B\n\n"+
			"as-set: AS-B\nmembers: AS-C\n\n"+
			"as-set: AS-C\nmembers: AS-A, AS-TAIL\n\n"+
			"as-set: AS-TAIL\nmembers: AS9\n").IR,
		"cycle-with-unrecorded-ref": dbFrom(t, "as-set: AS-A\nmembers: AS-B, AS-GHOST\n\n"+
			"as-set: AS-B\nmembers: AS-A, AS4\n").IR,
		"mbrs-by-ref-through-cycle": dbFrom(t, "as-set: AS-A\nmembers: AS-B\nmbrs-by-ref: MNT-M\n\n"+
			"as-set: AS-B\nmembers: AS-A\n\n"+
			"aut-num: AS11\nmember-of: AS-A\nmnt-by: MNT-M\n").IR,
	}
	for seed := int64(1); seed <= 5; seed++ {
		u := irrgen.Generate(topology.Generate(topology.Config{ASes: 150, Seed: seed}), irrgen.Config{Seed: seed})
		b := parser.NewBuilder()
		for _, name := range irrgen.IRRs {
			b.AddDump(rpsl.NewReader(strings.NewReader(u.DumpText(name)), name))
		}
		corpora[fmt.Sprintf("irrgen-seed-%d", seed)] = b.IR
	}
	for name, x := range corpora {
		t.Run(name, func(t *testing.T) {
			db := New(x)
			if len(x.AsSets) == 0 {
				t.Fatal("corpus has no as-sets")
			}
			c := db.Clone()
			c.ReflattenAsSets(sortedMapKeys(x.AsSets))
			assertMatchesRebuild(t, c)

			for set := range x.AsSets {
				asns := make(map[ir.ASN]struct{})
				unrecorded := make(map[string]struct{})
				seen := make(map[string]bool)
				inLoop := false
				var walk func(string)
				walk = func(n string) {
					seen[n] = true
					for _, a := range x.AsSets[n].MemberASNs {
						asns[a] = struct{}{}
					}
					for _, a := range db.asSetIndirectOf(n) {
						asns[a] = struct{}{}
					}
					for _, m := range x.AsSets[n].MemberSets {
						if m == set {
							inLoop = true
						}
						if _, recorded := x.AsSets[m]; !recorded {
							unrecorded[m] = struct{}{}
						} else if !seen[m] {
							walk(m)
						}
					}
				}
				walk(set)
				f, ok := db.AsSet(set)
				if !ok {
					t.Fatalf("%s has no flat view", set)
				}
				if !maps.Equal(f.ASNs, asns) {
					t.Errorf("%s: ASNs %v, depth-first walk %v", set, f.ASNs, asns)
				}
				if !slices.Equal(f.Unrecorded, sortedKeys(unrecorded)) {
					t.Errorf("%s: Unrecorded %v, depth-first walk %v", set, f.Unrecorded, sortedKeys(unrecorded))
				}
				if f.InLoop != inLoop || f.Recursive != (len(x.AsSets[set].MemberSets) > 0) {
					t.Errorf("%s: InLoop %v Recursive %v, depth-first walk %v %v",
						set, f.InLoop, f.Recursive, inLoop, len(x.AsSets[set].MemberSets) > 0)
				}
			}
		})
	}
}
