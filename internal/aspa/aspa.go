// Package aspa implements AS-path verification based on Autonomous
// System Provider Authorizations (the ASPA draft the paper's related
// work discusses): operators attest their providers, and verifiers
// check that observed AS-paths are valley-free with respect to the
// attested provider sets. The paper's Section 5 "follows this approach
// using the RPSL instead of ASPA's provider relationships"; this
// module provides the ASPA side so the two coverage models can be
// compared on the same routes.
package aspa

import (
	"sort"

	"rpslyzer/internal/asrel"
	"rpslyzer/internal/ir"
)

// Authorization is one ASPA object: a customer AS and its attested
// providers.
type Authorization struct {
	Customer  ir.ASN   `json:"customer"`
	Providers []ir.ASN `json:"providers"`
}

// Database holds ASPA objects keyed by customer.
type Database struct {
	auths map[ir.ASN]map[ir.ASN]bool
}

// New creates an empty database.
func New() *Database {
	return &Database{auths: make(map[ir.ASN]map[ir.ASN]bool)}
}

// Add registers (or extends) the authorization for a customer.
func (db *Database) Add(customer ir.ASN, providers ...ir.ASN) {
	set := db.auths[customer]
	if set == nil {
		set = make(map[ir.ASN]bool)
		db.auths[customer] = set
	}
	for _, p := range providers {
		set[p] = true
	}
}

// Len returns the number of registered customers.
func (db *Database) Len() int { return len(db.auths) }

// Authorizations lists the database contents, sorted by customer.
func (db *Database) Authorizations() []Authorization {
	out := make([]Authorization, 0, len(db.auths))
	for c, set := range db.auths {
		a := Authorization{Customer: c}
		for p := range set {
			a.Providers = append(a.Providers, p)
		}
		sort.Slice(a.Providers, func(i, j int) bool { return a.Providers[i] < a.Providers[j] })
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Customer < out[j].Customer })
	return out
}

// hopState classifies one adjacency under ASPA (draft terminology).
type hopState uint8

const (
	// hopProvider: the second AS is an attested provider of the first.
	hopProvider hopState = iota
	// hopNotProvider: the first AS published an ASPA and the second is
	// not in it.
	hopNotProvider
	// hopNoAttestation: the first AS published no ASPA.
	hopNoAttestation
)

func (db *Database) classify(customer, candidate ir.ASN) hopState {
	set, ok := db.auths[customer]
	if !ok {
		return hopNoAttestation
	}
	if set[candidate] {
		return hopProvider
	}
	return hopNotProvider
}

// Outcome is the ASPA verification outcome for one AS-path.
type Outcome uint8

const (
	// Valid: the path is provably valley-free under the attestations.
	Valid Outcome = iota
	// Invalid: the path provably violates some attestation.
	Invalid
	// Unknown: attestations are missing for the hops that would decide.
	Unknown
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	}
	return "unknown"
}

// VerifyUpstreamPath implements the upstream verification procedure of
// the ASPA draft, simplified for route-collector paths: walking from
// the origin towards the collector, the path must climb attested
// customer→provider edges, cross at most one lateral (peer) step, and
// then only descend. A descent step is one where the LEFT AS does not
// attest the RIGHT AS as provider; once descending, any further climb
// proves a valley.
//
// path is collector-side first, origin last (the repository's usual
// order). Prepends must already be removed.
func (db *Database) VerifyUpstreamPath(path []ir.ASN) Outcome {
	if len(path) < 2 {
		return Valid
	}
	// Walk origin -> collector: pairs (path[i+1] customer, path[i]
	// candidate provider), from the right end leftwards.
	sawDown := false
	unknown := false
	for i := len(path) - 2; i >= 0; i-- {
		up := db.classify(path[i+1], path[i])   // is path[i] an attested provider of path[i+1]?
		down := db.classify(path[i], path[i+1]) // is path[i+1] an attested provider of path[i]? (i.e. this step descends)
		switch {
		case up == hopProvider:
			if sawDown {
				return Invalid // climbing again after a descent: valley
			}
		case down == hopProvider:
			sawDown = true
		case up == hopNotProvider && down == hopNotProvider:
			// Both sides attest, neither direction is provider: a peer
			// link. At most one such lateral move is allowed at the top;
			// treat it as the apex.
			if sawDown {
				return Invalid
			}
			sawDown = true
		default:
			// Missing attestation on the deciding side.
			unknown = true
			sawDown = true // conservatively assume the apex was passed
		}
	}
	if unknown {
		return Unknown
	}
	return Valid
}

// DedupePrepends removes consecutive duplicate ASes; ASPA
// verification, like the paper's RPSL verification, operates on the
// prepend-free path (a prepended hop would otherwise read as a bogus
// lateral step).
func DedupePrepends(path []ir.ASN) []ir.ASN {
	out := make([]ir.ASN, 0, len(path))
	for i, a := range path {
		if i > 0 && a == path[i-1] {
			continue
		}
		out = append(out, a)
	}
	return out
}

// FromRelationships builds the ASPA database a given fraction of
// customers would publish, drawing ground truth from the relationship
// database — the deployment-scenario generator for coverage
// comparisons. adoptFrac 1.0 means universal ASPA adoption.
func FromRelationships(rels *asrel.Database, adoptFrac float64, seed int64) *Database {
	db := New()
	rng := splitmix(uint64(seed))
	for _, asn := range rels.ASes() {
		providers := rels.Providers(asn)
		if len(providers) == 0 {
			continue
		}
		if float64(rng.next()>>11)/float64(1<<53) >= adoptFrac {
			continue
		}
		db.Add(asn, providers...)
	}
	return db
}

type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
