// Package asrel provides the AS business-relationship database the
// verifier's special-case checks rely on (the paper uses CAIDA's
// AS-relationship inference [46]). It stores provider-customer and
// peer-peer links, detects the Tier-1 clique, computes customer cones,
// and reads and writes the CAIDA serialization format.
package asrel

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"rpslyzer/internal/ir"
)

// Rel is the relationship of one AS to another, directional: if
// Rel(a, b) == Provider then a is a provider of b.
type Rel int8

const (
	// None means no known relationship.
	None Rel = iota
	// Provider : the first AS is a provider of the second.
	Provider
	// Customer : the first AS is a customer of the second.
	Customer
	// Peer : settlement-free peers.
	Peer
)

// String renders the relationship.
func (r Rel) String() string {
	switch r {
	case Provider:
		return "provider"
	case Customer:
		return "customer"
	case Peer:
		return "peer"
	}
	return "none"
}

// Database holds AS relationships. The zero value is unusable; use New.
type Database struct {
	providers map[ir.ASN][]ir.ASN // asn -> its providers
	customers map[ir.ASN][]ir.ASN // asn -> its customers
	peers     map[ir.ASN][]ir.ASN // asn -> its peers
	tier1     map[ir.ASN]bool
}

// New returns an empty relationship database.
func New() *Database {
	return &Database{
		providers: make(map[ir.ASN][]ir.ASN),
		customers: make(map[ir.ASN][]ir.ASN),
		peers:     make(map[ir.ASN][]ir.ASN),
		tier1:     make(map[ir.ASN]bool),
	}
}

// AddP2C records provider -> customer. Duplicate links are ignored.
func (db *Database) AddP2C(provider, customer ir.ASN) {
	if db.Rel(provider, customer) != None {
		return
	}
	db.customers[provider] = append(db.customers[provider], customer)
	db.providers[customer] = append(db.providers[customer], provider)
}

// AddP2P records a peer link. Duplicate links are ignored.
func (db *Database) AddP2P(a, b ir.ASN) {
	if db.Rel(a, b) != None {
		return
	}
	db.peers[a] = append(db.peers[a], b)
	db.peers[b] = append(db.peers[b], a)
}

// Rel returns the relationship of a to b.
func (db *Database) Rel(a, b ir.ASN) Rel {
	for _, c := range db.customers[a] {
		if c == b {
			return Provider
		}
	}
	for _, p := range db.providers[a] {
		if p == b {
			return Customer
		}
	}
	for _, p := range db.peers[a] {
		if p == b {
			return Peer
		}
	}
	return None
}

// Providers returns a's providers.
func (db *Database) Providers(a ir.ASN) []ir.ASN { return db.providers[a] }

// Customers returns a's customers.
func (db *Database) Customers(a ir.ASN) []ir.ASN { return db.customers[a] }

// Peers returns a's peers.
func (db *Database) Peers(a ir.ASN) []ir.ASN { return db.peers[a] }

// Degree returns the total number of neighbors of a.
func (db *Database) Degree(a ir.ASN) int {
	return len(db.providers[a]) + len(db.customers[a]) + len(db.peers[a])
}

// ASes returns every AS mentioned in the database, sorted.
func (db *Database) ASes() []ir.ASN {
	seen := make(map[ir.ASN]bool)
	for a := range db.providers {
		seen[a] = true
	}
	for a := range db.customers {
		seen[a] = true
	}
	for a := range db.peers {
		seen[a] = true
	}
	out := make([]ir.ASN, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetTier1 marks an AS as Tier-1 explicitly (used by generators that
// know the ground truth).
func (db *Database) SetTier1(a ir.ASN) { db.tier1[a] = true }

// IsTier1 reports whether a is in the Tier-1 clique.
func (db *Database) IsTier1(a ir.ASN) bool { return db.tier1[a] }

// Tier1s returns the Tier-1 clique, sorted.
func (db *Database) Tier1s() []ir.ASN {
	out := make([]ir.ASN, 0, len(db.tier1))
	for a := range db.tier1 {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ComputeTier1 infers the Tier-1 clique: start from provider-free ASes
// ordered by degree and greedily grow a clique over peer links. This
// mirrors the clique step of CAIDA's AS-rank method.
func (db *Database) ComputeTier1() {
	var candidates []ir.ASN
	for _, a := range db.ASes() {
		if len(db.providers[a]) == 0 && len(db.peers[a]) > 0 {
			candidates = append(candidates, a)
		}
	}
	sort.Slice(candidates, func(i, j int) bool {
		di, dj := db.Degree(candidates[i]), db.Degree(candidates[j])
		if di != dj {
			return di > dj
		}
		return candidates[i] < candidates[j]
	})
	clique := make(map[ir.ASN]bool)
	for _, cand := range candidates {
		ok := true
		for member := range clique {
			if db.Rel(cand, member) != Peer {
				ok = false
				break
			}
		}
		if ok {
			clique[cand] = true
		}
	}
	db.tier1 = clique
}

// CustomerCone returns the set of ASes in a's customer cone, excluding
// a itself: its customers, their customers, and so on.
func (db *Database) CustomerCone(a ir.ASN) map[ir.ASN]bool {
	cone := make(map[ir.ASN]bool)
	stack := append([]ir.ASN(nil), db.customers[a]...)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cone[c] {
			continue
		}
		cone[c] = true
		stack = append(stack, db.customers[c]...)
	}
	return cone
}

// WriteCAIDA serializes the database in CAIDA's as-rel format:
// "<a>|<b>|-1" for a-provider-of-b, "<a>|<b>|0" for peers. Tier-1
// membership is written as a comment header, mirroring CAIDA's clique
// annotation.
func (db *Database) WriteCAIDA(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if t1 := db.Tier1s(); len(t1) > 0 {
		strs := make([]string, len(t1))
		for i, a := range t1 {
			strs[i] = strconv.FormatUint(uint64(a), 10)
		}
		fmt.Fprintf(bw, "# inferred clique: %s\n", strings.Join(strs, " "))
	}
	for _, a := range db.ASes() {
		cs := append([]ir.ASN(nil), db.customers[a]...)
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, c := range cs {
			fmt.Fprintf(bw, "%d|%d|-1\n", a, c)
		}
		ps := append([]ir.ASN(nil), db.peers[a]...)
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for _, p := range ps {
			if a < p { // each peer link once
				fmt.Fprintf(bw, "%d|%d|0\n", a, p)
			}
		}
	}
	return bw.Flush()
}

// ReadCAIDA parses the CAIDA as-rel format produced by WriteCAIDA (and
// by CAIDA's published snapshots).
func ReadCAIDA(r io.Reader) (*Database, error) {
	db := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if rest, ok := strings.CutPrefix(line, "# inferred clique:"); ok {
				for _, f := range strings.Fields(rest) {
					n, err := strconv.ParseUint(f, 10, 32)
					if err != nil {
						return nil, fmt.Errorf("asrel: bad clique entry %q", f)
					}
					db.SetTier1(ir.ASN(n))
				}
			}
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			return nil, fmt.Errorf("asrel: bad line %q", line)
		}
		a, err1 := strconv.ParseUint(parts[0], 10, 32)
		b, err2 := strconv.ParseUint(parts[1], 10, 32)
		rel, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("asrel: bad line %q", line)
		}
		switch rel {
		case -1:
			db.AddP2C(ir.ASN(a), ir.ASN(b))
		case 0:
			db.AddP2P(ir.ASN(a), ir.ASN(b))
		default:
			return nil, fmt.Errorf("asrel: bad relationship %d in %q", rel, line)
		}
	}
	return db, sc.Err()
}
