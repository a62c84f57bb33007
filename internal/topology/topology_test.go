package topology

import (
	"testing"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/prefix"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 42, ASes: 300})
	b := Generate(Config{Seed: 42, ASes: 300})
	if len(a.Order) != len(b.Order) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("ASN order differs at %d", i)
		}
	}
	for _, asn := range a.Order {
		pa, pb := a.ASes[asn].Prefixes, b.ASes[asn].Prefixes
		if len(pa) != len(pb) {
			t.Fatalf("AS%d prefix counts differ", asn)
		}
		for i := range pa {
			if pa[i].Compare(pb[i]) != 0 {
				t.Fatalf("AS%d prefix %d differs", asn, i)
			}
		}
	}
}

func TestGenerateDifferentSeedsDiffer(t *testing.T) {
	a := Generate(Config{Seed: 1, ASes: 300})
	b := Generate(Config{Seed: 2, ASes: 300})
	same := true
	if len(a.Order) != len(b.Order) {
		same = false
	} else {
		for i := range a.Order {
			if a.Order[i] != b.Order[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical ASN sequences")
	}
}

func TestGenerateStructure(t *testing.T) {
	topo := Generate(Config{Seed: 7, ASes: 500})
	tiers := map[Tier]int{}
	for _, as := range topo.ASes {
		tiers[as.Tier]++
	}
	if tiers[Tier1] != 8 {
		t.Errorf("tier1 count = %d", tiers[Tier1])
	}
	if tiers[CDN] != 6 {
		t.Errorf("cdn count = %d", tiers[CDN])
	}
	if tiers[Stub] < 300 {
		t.Errorf("stub count = %d", tiers[Stub])
	}
	// Tier-1s form a full peer clique with no providers.
	t1s := topo.Rels.Tier1s()
	if len(t1s) != 8 {
		t.Fatalf("tier1 clique = %v", t1s)
	}
	for i, a := range t1s {
		if len(topo.Rels.Providers(a)) != 0 {
			t.Errorf("tier1 AS%d has providers", a)
		}
		for _, b := range t1s[i+1:] {
			if topo.Rels.Rel(a, b) != asrel.Peer {
				t.Errorf("tier1 AS%d and AS%d are not peers", a, b)
			}
		}
	}
	// Every non-Tier-1 AS has at least one provider (reachability).
	for _, asn := range topo.Order {
		if topo.ASes[asn].Tier == Tier1 {
			continue
		}
		if len(topo.Rels.Providers(asn)) == 0 {
			t.Errorf("AS%d (%v) has no provider", asn, topo.ASes[asn].Tier)
		}
	}
}

func TestGeneratePrefixesNonOverlapping(t *testing.T) {
	topo := Generate(Config{Seed: 5, ASes: 300})
	var all []prefix.Prefix
	for _, as := range topo.ASes {
		all = append(all, as.Prefixes...)
	}
	if len(all) < 300 {
		t.Fatalf("too few prefixes: %d", len(all))
	}
	// No prefix covers another (allocation is disjoint).
	tbl := prefix.FromPrefixes(all)
	for _, as := range topo.ASes {
		for _, p := range as.Prefixes {
			covering := tbl.LookupCovering(p)
			if len(covering) != 1 {
				t.Fatalf("prefix %v covered by %d entries", p, len(covering))
			}
		}
	}
}

func TestGenerateIPv6Present(t *testing.T) {
	topo := Generate(Config{Seed: 3, ASes: 300})
	n6 := 0
	for _, as := range topo.ASes {
		for _, p := range as.Prefixes {
			if p.IsIPv6() {
				n6++
			}
		}
	}
	if n6 == 0 {
		t.Error("no IPv6 prefixes generated")
	}
}

func TestCDNsPeerWidely(t *testing.T) {
	topo := Generate(Config{Seed: 11, ASes: 500})
	for _, asn := range topo.Order {
		as := topo.ASes[asn]
		if as.Tier != CDN {
			continue
		}
		if len(topo.Rels.Peers(asn)) < 3 {
			t.Errorf("CDN AS%d has only %d peers", asn, len(topo.Rels.Peers(asn)))
		}
		if len(as.Prefixes) < 10 {
			t.Errorf("CDN AS%d originates only %d prefixes", asn, len(as.Prefixes))
		}
	}
}

func TestTierString(t *testing.T) {
	for tier, want := range map[Tier]string{Tier1: "tier1", Tier2: "tier2", Tier3: "tier3", Stub: "stub", CDN: "cdn", Tier(99): "unknown"} {
		if got := tier.String(); got != want {
			t.Errorf("Tier(%d).String() = %q", tier, got)
		}
	}
}
