// Package topology generates a synthetic AS-level Internet with a
// realistic tiered structure: a Tier-1 clique, regional transit
// providers, small transits, stub networks, and large CDN/cloud
// networks with dense peering. It is the substrate standing in for the
// real Internet topology underlying the paper's IRR and BGP datasets;
// the generator is deterministic given a seed.
package topology

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// Tier classifies generated ASes.
type Tier uint8

const (
	// Tier1 ASes form the settlement-free clique at the top.
	Tier1 Tier = 1
	// Tier2 ASes are large regional transit providers.
	Tier2 Tier = 2
	// Tier3 ASes are small transit providers.
	Tier3 Tier = 3
	// Stub ASes originate prefixes but provide no transit.
	Stub Tier = 4
	// CDN ASes are large content networks with dense peering.
	CDN Tier = 5
)

// String renders the tier.
func (t Tier) String() string {
	switch t {
	case Tier1:
		return "tier1"
	case Tier2:
		return "tier2"
	case Tier3:
		return "tier3"
	case Stub:
		return "stub"
	case CDN:
		return "cdn"
	}
	return "unknown"
}

// AS is one generated autonomous system.
type AS struct {
	ASN      ir.ASN
	Tier     Tier
	Prefixes []prefix.Prefix // prefixes the AS legitimately originates
}

// Config parameterizes generation.
type Config struct {
	// Seed drives the deterministic PRNG.
	Seed int64
	// ASes is the total number of ASes (minimum 20).
	ASes int
	// Tier1s is the clique size (default 8, like the real Internet's
	// dozen-odd).
	Tier1s int
	// Tier2Frac, Tier3Frac are fractions of ASes in those tiers
	// (defaults 0.02 and 0.10). CDNs default to 6 networks.
	Tier2Frac, Tier3Frac float64
	// CDNs is the number of large content networks.
	CDNs int
	// IPv6Frac is the fraction of ASes that also originate IPv6
	// prefixes (default 0.3).
	IPv6Frac float64
}

func (c *Config) fillDefaults() {
	if c.ASes < 20 {
		c.ASes = 20
	}
	if c.Tier1s == 0 {
		c.Tier1s = 8
	}
	if c.Tier2Frac == 0 {
		c.Tier2Frac = 0.02
	}
	if c.Tier3Frac == 0 {
		c.Tier3Frac = 0.10
	}
	if c.CDNs == 0 {
		c.CDNs = 6
	}
	if c.IPv6Frac == 0 {
		c.IPv6Frac = 0.3
	}
}

// Topology is a generated AS-level Internet.
type Topology struct {
	ASes  map[ir.ASN]*AS
	Order []ir.ASN // ASNs in ascending order
	// Rels is the ground-truth relationship database.
	Rels *asrel.Database
}

// AS returns the AS record for asn.
func (t *Topology) AS(asn ir.ASN) *AS { return t.ASes[asn] }

// Generate builds a topology from the config.
func Generate(cfg Config) *Topology {
	cfg.fillDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	topo := &Topology{ASes: make(map[ir.ASN]*AS), Rels: asrel.New()}

	n := cfg.ASes
	nT2 := int(float64(n) * cfg.Tier2Frac)
	if nT2 < 4 {
		nT2 = 4
	}
	nT3 := int(float64(n) * cfg.Tier3Frac)
	if nT3 < 8 {
		nT3 = 8
	}
	nCDN := cfg.CDNs
	nStub := n - cfg.Tier1s - nT2 - nT3 - nCDN
	if nStub < 1 {
		nStub = 1
	}

	next := ir.ASN(10)
	alloc := func(tier Tier, count int) []ir.ASN {
		out := make([]ir.ASN, count)
		for i := range out {
			asn := next
			next++
			// Leave gaps so ASNs don't look consecutive.
			next += ir.ASN(rng.Intn(7))
			topo.ASes[asn] = &AS{ASN: asn, Tier: tier}
			out[i] = asn
		}
		return out
	}

	t1 := alloc(Tier1, cfg.Tier1s)
	t2 := alloc(Tier2, nT2)
	t3 := alloc(Tier3, nT3)
	cdn := alloc(CDN, nCDN)
	stubs := alloc(Stub, nStub)

	// Tier-1 clique.
	for i, a := range t1 {
		topo.Rels.SetTier1(a)
		for _, b := range t1[i+1:] {
			topo.Rels.AddP2P(a, b)
		}
	}
	// Tier-2: 2-3 Tier-1 providers, ~25% peering among Tier-2.
	for _, a := range t2 {
		for _, p := range pickDistinct(rng, t1, 2+rng.Intn(2)) {
			topo.Rels.AddP2C(p, a)
		}
	}
	for i, a := range t2 {
		for _, b := range t2[i+1:] {
			if rng.Float64() < 0.25 {
				topo.Rels.AddP2P(a, b)
			}
		}
	}
	// Tier-3: 1-3 providers from Tier-2 (sometimes Tier-1), sparse
	// peering among Tier-3.
	for _, a := range t3 {
		nprov := 1 + rng.Intn(3)
		for _, p := range pickDistinct(rng, t2, nprov) {
			topo.Rels.AddP2C(p, a)
		}
		if rng.Float64() < 0.15 {
			topo.Rels.AddP2C(t1[rng.Intn(len(t1))], a)
		}
	}
	for i, a := range t3 {
		for _, b := range t3[i+1:] {
			if rng.Float64() < 0.01 {
				topo.Rels.AddP2P(a, b)
			}
		}
	}
	// CDNs: 1-2 providers, dense peering with Tier-2/Tier-3.
	for _, a := range cdn {
		for _, p := range pickDistinct(rng, t1, 1+rng.Intn(2)) {
			topo.Rels.AddP2C(p, a)
		}
		for _, b := range t2 {
			if rng.Float64() < 0.5 {
				topo.Rels.AddP2P(a, b)
			}
		}
		for _, b := range t3 {
			if rng.Float64() < 0.2 {
				topo.Rels.AddP2P(a, b)
			}
		}
	}
	// Stubs: 1-2 providers from Tier-2/Tier-3 (weighted towards
	// Tier-3).
	transits := append(append([]ir.ASN{}, t2...), t3...)
	for _, a := range stubs {
		nprov := 1
		if rng.Float64() < 0.3 {
			nprov = 2
		}
		for _, p := range pickDistinct(rng, transits, nprov) {
			topo.Rels.AddP2C(p, a)
		}
	}
	// IXP peering meshes: groups of stubs and small transits peer
	// densely, like members behind an IXP route server. This is what
	// makes peer links outnumber declared ones, driving the paper's
	// finding that most unverified hops traverse undeclared peerings.
	members := append(append([]ir.ASN{}, t3...), stubs...)
	nIXP := n/150 + 1
	for i := 0; i < nIXP; i++ {
		size := 8 + rng.Intn(20)
		ixp := pickDistinct(rng, members, size)
		for j, a := range ixp {
			for _, b := range ixp[j+1:] {
				if rng.Float64() < 0.35 {
					topo.Rels.AddP2P(a, b)
				}
			}
		}
	}

	// Prefix allocation: non-overlapping v4 blocks carved sequentially,
	// heavy-tailed counts; CDNs originate many prefixes.
	v4 := newV4Allocator()
	v6 := newV6Allocator()
	for _, asn := range sortedASNs(topo.ASes) {
		as := topo.ASes[asn]
		var count int
		switch as.Tier {
		case Tier1:
			count = 4 + rng.Intn(12)
		case Tier2:
			count = 2 + rng.Intn(8)
		case Tier3:
			count = 1 + rng.Intn(5)
		case CDN:
			count = 16 + rng.Intn(32)
		default:
			count = 1 + heavyTail(rng, 3)
		}
		for i := 0; i < count; i++ {
			bits := 24
			switch rng.Intn(6) {
			case 0:
				bits = 20
			case 1:
				bits = 22
			}
			as.Prefixes = append(as.Prefixes, v4.alloc(bits))
		}
		if rng.Float64() < cfg.IPv6Frac {
			n6 := 1 + rng.Intn(3)
			for i := 0; i < n6; i++ {
				as.Prefixes = append(as.Prefixes, v6.alloc(40+8*rng.Intn(2)))
			}
		}
	}

	topo.Order = sortedASNs(topo.ASes)
	return topo
}

// heavyTail returns a small value with a long tail (approximately
// Pareto), capped at 64.
func heavyTail(rng *rand.Rand, scale int) int {
	v := int(float64(scale) / (rng.Float64() + 0.02))
	if v > 64 {
		v = 64
	}
	if v < 1 {
		v = 1
	}
	return v / 4
}

func sortedASNs(m map[ir.ASN]*AS) []ir.ASN {
	out := make([]ir.ASN, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pickDistinct picks up to k distinct elements from pool.
func pickDistinct(rng *rand.Rand, pool []ir.ASN, k int) []ir.ASN {
	if k >= len(pool) {
		out := append([]ir.ASN(nil), pool...)
		return out
	}
	seen := make(map[int]bool, k)
	out := make([]ir.ASN, 0, k)
	for len(out) < k {
		i := rng.Intn(len(pool))
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, pool[i])
	}
	return out
}

// v4Allocator hands out non-overlapping IPv4 blocks from 11.0.0.0
// upward.
type v4Allocator struct {
	next uint32
}

func newV4Allocator() *v4Allocator {
	return &v4Allocator{next: 11 << 24}
}

func (a *v4Allocator) alloc(bits int) prefix.Prefix {
	size := uint32(1) << (32 - bits)
	// Align up.
	a.next = (a.next + size - 1) &^ (size - 1)
	addr := a.next
	a.next += size
	p, err := netip.AddrFrom4([4]byte{
		byte(addr >> 24), byte(addr >> 16), byte(addr >> 8), byte(addr),
	}).Prefix(bits)
	if err != nil {
		panic(fmt.Sprintf("topology: v4 alloc: %v", err))
	}
	return prefix.FromNetip(p)
}

// v6Allocator hands out non-overlapping IPv6 blocks under 2a10::/16.
type v6Allocator struct {
	next uint64 // block counter in units of /48
}

func newV6Allocator() *v6Allocator { return &v6Allocator{next: 1} }

func (a *v6Allocator) alloc(bits int) prefix.Prefix {
	if bits > 48 {
		bits = 48
	}
	blocks := uint64(1) << (48 - bits)
	a.next = (a.next + blocks - 1) &^ (blocks - 1)
	id := a.next
	a.next += blocks
	var b [16]byte
	b[0], b[1] = 0x2a, 0x10
	// Place the /48 counter in bytes 2..5.
	b[2] = byte(id >> 24)
	b[3] = byte(id >> 16)
	b[4] = byte(id >> 8)
	b[5] = byte(id)
	p, err := netip.AddrFrom16(b).Prefix(bits)
	if err != nil {
		panic(fmt.Sprintf("topology: v6 alloc: %v", err))
	}
	return prefix.FromNetip(p)
}
