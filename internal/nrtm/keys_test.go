package nrtm_test

import (
	"testing"

	"rpslyzer/internal/core"
	"rpslyzer/internal/depgraph"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/nrtm"
	"rpslyzer/internal/prefix"
)

const keysSnapshot = `aut-num: AS1
import: from AS2 accept ANY

aut-num: AS2
export: to AS1 announce ANY

as-set: AS-ALPHA
members: AS1
mbrs-by-ref: ANY

route-set: RS-BETA
members: AS2

route: 192.0.2.0/24
origin: AS1

peering-set: PRNG-P
peering: AS1

filter-set: FLTR-F
filter: ANY
`

func keysMirror(t *testing.T) *nrtm.Mirror {
	t.Helper()
	return nrtm.NewMirrorDB(irr.New(core.ParseText(keysSnapshot, "TEST")), nil, nil)
}

func applyKeys(t *testing.T, mir *nrtm.Mirror, serial uint64, action nrtm.Action, object string) []depgraph.Key {
	t.Helper()
	keys, err := mir.ApplyAllKeys([]*nrtm.Journal{{
		Registry: "TEST", First: serial, Last: serial,
		Ops: []nrtm.Op{{Serial: serial, Action: action, Object: object}},
	}})
	if err != nil {
		t.Fatalf("apply serial %d: %v", serial, err)
	}
	if keys == nil {
		t.Fatalf("apply serial %d: nil keys from successful apply", serial)
	}
	return keys
}

func wantKeys(t *testing.T, got []depgraph.Key, want ...depgraph.Key) {
	t.Helper()
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing key %v in %v", w, got)
		}
	}
}

func TestApplyKeysPerClass(t *testing.T) {
	mir := keysMirror(t)

	// aut-num replacement touches the aut-num key; a changed member-of
	// claim additionally dirties the named as-set.
	keys := applyKeys(t, mir, 1, nrtm.OpAdd,
		"aut-num: AS1\nimport: from AS3 accept ANY\nmember-of: AS-ALPHA\n")
	wantKeys(t, keys, depgraph.AutNumKey(1), depgraph.AsSetKey("AS-ALPHA"))

	keys = applyKeys(t, mir, 2, nrtm.OpAdd, "as-set: AS-ALPHA\nmembers: AS1, AS2\n")
	wantKeys(t, keys, depgraph.AsSetKey("AS-ALPHA"))

	keys = applyKeys(t, mir, 3, nrtm.OpAdd, "route-set: RS-BETA\nmembers: AS1\n")
	wantKeys(t, keys, depgraph.RouteSetKey("RS-BETA"))

	keys = applyKeys(t, mir, 4, nrtm.OpAdd, "peering-set: PRNG-P\npeering: AS2\n")
	wantKeys(t, keys, depgraph.PeeringSetKey("PRNG-P"))

	keys = applyKeys(t, mir, 5, nrtm.OpDel, "filter-set: FLTR-F\nfilter: ANY\n")
	wantKeys(t, keys, depgraph.FilterSetKey("FLTR-F"))
}

func TestApplyKeysRouteOps(t *testing.T) {
	mir := keysMirror(t)
	pfx, err := prefix.Parse("198.51.100.0/24")
	if err != nil {
		t.Fatal(err)
	}

	// A new route touches its origin's route table, its exact prefix,
	// and the route-sets it claims membership of.
	keys := applyKeys(t, mir, 1, nrtm.OpAdd,
		"route: 198.51.100.0/24\norigin: AS2\nmember-of: RS-BETA\n")
	wantKeys(t, keys,
		depgraph.RoutesKey(2), depgraph.PrefixKey(pfx), depgraph.RouteSetKey("RS-BETA"))

	// Replacing it with different member-of claims touches both the old
	// and the new route-set.
	keys = applyKeys(t, mir, 2, nrtm.OpAdd,
		"route: 198.51.100.0/24\norigin: AS2\nmember-of: RS-GAMMA\n")
	wantKeys(t, keys,
		depgraph.RoutesKey(2), depgraph.PrefixKey(pfx),
		depgraph.RouteSetKey("RS-BETA"), depgraph.RouteSetKey("RS-GAMMA"))

	// Deleting it still reports the stored claims.
	keys = applyKeys(t, mir, 3, nrtm.OpDel,
		"route: 198.51.100.0/24\norigin: AS2\nmember-of: RS-GAMMA\n")
	wantKeys(t, keys,
		depgraph.RoutesKey(2), depgraph.PrefixKey(pfx), depgraph.RouteSetKey("RS-GAMMA"))
}

func TestApplyKeysEmptyBatch(t *testing.T) {
	mir := keysMirror(t)
	keys, err := mir.ApplyAllKeys(nil)
	if err != nil {
		t.Fatal(err)
	}
	if keys == nil || len(keys) != 0 {
		t.Fatalf("empty batch: got %v, want non-nil empty slice", keys)
	}
}
