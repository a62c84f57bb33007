package whois

import (
	"reflect"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/irr"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/rpsl"
)

const whoisIRR = `
aut-num: AS15169
as-name: GOOGLE
import: from AS174 accept ANY
export: to AS174 announce AS15169
source: RADB

route: 8.8.8.0/24
origin: AS15169
source: RADB

route: 8.8.4.0/24
origin: AS15169
source: RADB

as-set: AS-GOOGLE
members: AS15169, AS-GOOGLE-IT
source: RADB

route-set: RS-G
members: 8.8.8.0/24^+
source: RADB
`

func newTestServer(t *testing.T) *Server {
	t.Helper()
	return NewServer(irr.New(parser.ParseText(whoisIRR, "RADB")))
}

func TestQueryAutNum(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query("AS15169")
	if !strings.Contains(resp, "aut-num:        AS15169") ||
		!strings.Contains(resp, "from AS174 accept ANY") {
		t.Errorf("response = %q", resp)
	}
	if !strings.Contains(s.Query("AS999"), "no entries") {
		t.Error("missing aut-num should say no entries")
	}
}

func TestQuerySets(t *testing.T) {
	s := newTestServer(t)
	if !strings.Contains(s.Query("AS-GOOGLE"), "members:        AS15169, AS-GOOGLE-IT") {
		t.Errorf("as-set response = %q", s.Query("AS-GOOGLE"))
	}
	if !strings.Contains(s.Query("RS-G"), "8.8.8.0/24^+") {
		t.Errorf("route-set response = %q", s.Query("RS-G"))
	}
	if !strings.Contains(s.Query("AS-NOPE"), "no entries") {
		t.Error("missing set should say no entries")
	}
}

func TestQueryPrefixAndAddress(t *testing.T) {
	s := newTestServer(t)
	// The Appendix A example: whois 8.8.8.8 returns the covering route.
	resp := s.Query("8.8.8.8")
	if !strings.Contains(resp, "route:          8.8.8.0/24") ||
		!strings.Contains(resp, "origin:         AS15169") {
		t.Errorf("address response = %q", resp)
	}
	resp2 := s.Query("8.8.8.0/24")
	if !strings.Contains(resp2, "origin:         AS15169") {
		t.Errorf("prefix response = %q", resp2)
	}
	if !strings.Contains(s.Query("1.2.3.4"), "no entries") {
		t.Error("unknown address should say no entries")
	}
}

// TestQueryIPv6AddressFindsEveryCover looks a bare IPv6 address up as
// its /128: a /32 reading of the text masks the address to the /32
// and misses the /48 in between.
func TestQueryIPv6AddressFindsEveryCover(t *testing.T) {
	s := NewServer(irr.New(parser.ParseText(`
route6: 2001:db8::/32
origin: AS64500
source: RADB

route6: 2001:db8:1::/48
origin: AS64501
source: RADB
`, "RADB")))
	resp := s.Query("2001:db8:1::1")
	i32, i48 := strings.Index(resp, " 2001:db8::/32\n"), strings.Index(resp, " 2001:db8:1::/48\n")
	if i32 < 0 || i48 < i32 {
		t.Fatalf("address query = %q, want the /32 then the /48", resp)
	}
	if !strings.Contains(s.Query("2001:db8:2::1"), "2001:db8::/32") ||
		strings.Contains(s.Query("2001:db8:2::1"), "/48") {
		t.Errorf("address outside the /48 = %q", s.Query("2001:db8:2::1"))
	}
	if got := s.Query("fe80::1%eth0"); !strings.Contains(got, "unrecognized query") {
		t.Errorf("zoned address = %q", got)
	}
}

func TestQueryInverseOrigin(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query("-i origin AS15169")
	if strings.Count(resp, "route:") != 2 {
		t.Errorf("origin response = %q", resp)
	}
	if !strings.Contains(s.Query("-i origin AS42"), "no entries") {
		t.Error("zero-route origin should say no entries")
	}
}

func TestQueryErrors(t *testing.T) {
	s := newTestServer(t)
	for _, q := range []string{"", "-i origin banana", "%%%"} {
		if !strings.Contains(s.Query(q), "%") {
			t.Errorf("query %q should error", q)
		}
	}
}

func TestServerOverTCP(t *testing.T) {
	s := newTestServer(t)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr().String()

	resp, err := QueryServer(addr, "AS15169")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "aut-num:        AS15169") {
		t.Errorf("TCP response = %q", resp)
	}

	// The response must be parseable RPSL.
	objs, _ := rpsl.ParseObjects(resp, "WHOIS")
	if len(objs) != 1 || objs[0].Name != "AS15169" {
		t.Errorf("response did not round-trip: %v", objs)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s := newTestServer(t)
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	addr := s.Addr().String()
	done := make(chan error, 10)
	for i := 0; i < 10; i++ {
		go func() {
			resp, err := QueryServer(addr, "8.8.8.8")
			if err == nil && !strings.Contains(resp, "AS15169") {
				err = nil // content mismatch checked in serial test
			}
			done <- err
		}()
	}
	for i := 0; i < 10; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestCloseBeforeListen(t *testing.T) {
	s := newTestServer(t)
	if s.Addr() != nil {
		t.Error("Addr before Listen should be nil")
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close before Listen errored: %v", err)
	}
}

func TestIRRdOriginQueries(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query("!gAS15169")
	if !strings.HasPrefix(resp, "A") || !strings.Contains(resp, "8.8.8.0/24") || !strings.Contains(resp, "8.8.4.0/24") {
		t.Errorf("!g response = %q", resp)
	}
	if strings.Contains(resp, "2001:") {
		t.Errorf("!g leaked IPv6: %q", resp)
	}
	if got := s.Query("!6AS15169"); got != "D\n" {
		t.Errorf("!6 with no v6 routes = %q", got)
	}
	if got := s.Query("!gAS42"); got != "D\n" {
		t.Errorf("!g zero-route = %q", got)
	}
	if !strings.HasPrefix(s.Query("!gbanana"), "F") {
		t.Error("!g with bad ASN should return F")
	}
}

func TestIRRdSetQueries(t *testing.T) {
	s := newTestServer(t)
	resp := s.Query("!iAS-GOOGLE")
	if !strings.Contains(resp, "AS15169") || !strings.Contains(resp, "AS-GOOGLE-IT") {
		t.Errorf("!i response = %q", resp)
	}
	// Recursive flattening drops the unrecorded sub-set but keeps ASNs.
	rec := s.Query("!iAS-GOOGLE,1")
	if !strings.Contains(rec, "AS15169") || strings.Contains(rec, "AS-GOOGLE-IT") {
		t.Errorf("!i,1 response = %q", rec)
	}
	if got := s.Query("!iAS-NOPE"); got != "D\n" {
		t.Errorf("!i missing set = %q", got)
	}
	if !strings.HasPrefix(s.Query("!zwhat"), "F") {
		t.Error("unknown irrd command should return F")
	}
	if !strings.HasPrefix(s.Query("!!"), "A0") {
		t.Error("!! handshake should be accepted")
	}
}

// routeSearchIRR has nested prefixes and a multi-origin prefix to
// exercise the radix-index route search.
const routeSearchIRR = `
route: 10.0.0.0/8
origin: AS100
source: RADB

route: 10.1.0.0/16
origin: AS200
source: RADB

route: 10.1.0.0/16
origin: AS300
source: RADB

route: 10.1.2.0/24
origin: AS200
source: RADB

route: 192.0.2.0/24
origin: AS400
source: RADB
`

func newRouteSearchServer(t *testing.T) *Server {
	t.Helper()
	return NewServer(irr.New(parser.ParseText(routeSearchIRR, "RADB")))
}

func TestIRRdRouteSearchExact(t *testing.T) {
	s := newRouteSearchServer(t)
	resp := s.Query("!r10.1.0.0/16")
	if !strings.HasPrefix(resp, "A") ||
		!strings.Contains(resp, "origin:         AS200") ||
		!strings.Contains(resp, "origin:         AS300") {
		t.Fatalf("!r exact = %q", resp)
	}
	if strings.Contains(resp, "10.0.0.0/8") || strings.Contains(resp, "10.1.2.0/24") {
		t.Fatalf("!r exact leaked non-exact routes: %q", resp)
	}
	if got := s.Query("!r10.9.0.0/16"); got != "D\n" {
		t.Fatalf("!r miss = %q", got)
	}
}

func TestIRRdRouteSearchOrigins(t *testing.T) {
	s := newRouteSearchServer(t)
	resp := s.Query("!r10.1.0.0/16,o")
	if !strings.Contains(resp, "AS200 AS300") {
		t.Fatalf("!r,o = %q", resp)
	}
}

func TestIRRdRouteSearchCovering(t *testing.T) {
	s := newRouteSearchServer(t)
	resp := s.Query("!r10.1.2.0/24,L")
	// Less-specific search walks the radix path: /8, /16, and the
	// exact /24, shortest first.
	i8 := strings.Index(resp, "10.0.0.0/8")
	i16 := strings.Index(resp, "10.1.0.0/16")
	i24 := strings.Index(resp, "10.1.2.0/24")
	if i8 < 0 || i16 < 0 || i24 < 0 || !(i8 < i16 && i16 < i24) {
		t.Fatalf("!r,L = %q", resp)
	}
}

func TestIRRdRouteSearchMoreSpecific(t *testing.T) {
	s := newRouteSearchServer(t)
	resp := s.Query("!r10.0.0.0/8,M")
	if !strings.Contains(resp, "10.0.0.0/8") ||
		!strings.Contains(resp, "10.1.0.0/16") ||
		!strings.Contains(resp, "10.1.2.0/24") {
		t.Fatalf("!r,M = %q", resp)
	}
	if strings.Contains(resp, "192.0.2.0/24") {
		t.Fatalf("!r,M leaked unrelated route: %q", resp)
	}
}

func TestIRRdRouteSearchErrors(t *testing.T) {
	s := newRouteSearchServer(t)
	if got := s.Query("!rnot-a-prefix"); !strings.HasPrefix(got, "F ") {
		t.Fatalf("bad prefix = %q", got)
	}
	if got := s.Query("!r10.0.0.0/8,Z"); !strings.HasPrefix(got, "F ") {
		t.Fatalf("bad option = %q", got)
	}
}

func TestQueryAddressUsesRadixIndex(t *testing.T) {
	s := newRouteSearchServer(t)
	resp := s.Query("10.1.2.3")
	// All covering routes, least specific first, origins sorted.
	i8 := strings.Index(resp, "10.0.0.0/8")
	i16 := strings.Index(resp, "10.1.0.0/16")
	i24 := strings.Index(resp, "10.1.2.0/24")
	if i8 < 0 || i16 < 0 || i24 < 0 || !(i8 < i16 && i16 < i24) {
		t.Fatalf("address query = %q", resp)
	}
	a200 := strings.Index(resp, "origin:         AS200")
	a300 := strings.Index(resp, "origin:         AS300")
	if a200 < 0 || a300 < 0 || a200 > a300 {
		t.Fatalf("origins not sorted: %q", resp)
	}
}

// classesIRR holds one object of every class a whois answer renders,
// each with only the attributes its answer carries.
const classesIRR = `
aut-num: AS64500
as-name: EXAMPLE
import: from AS64501 accept AS64501
export: to AS64501 announce AS-EXAMPLE
source: RADB

as-set: AS-EXAMPLE
members: AS64500, AS-EXAMPLE-CUST
source: RADB

route-set: RS-EXAMPLE
members: 192.0.2.0/24^+, AS64500, RS-OTHER^-
source: RADB

peering-set: PRNG-EXAMPLE
peering: AS64501 at 192.0.2.1
peering: AS64502 192.0.2.9 at 192.0.2.2
source: RADB

filter-set: FLTR-EXAMPLE
filter: { 192.0.2.0/24^+ } AND NOT AS64502
source: RADB

rtr-set: RTRS-EXAMPLE
members: rtr1.example.net, 192.0.2.1
source: RADB

route: 192.0.2.0/24
origin: AS64500
source: RADB
`

// TestAnswersReparseToTheirObjects parses each object answer back and
// requires exactly the fixture's object: no attribute dropped, none
// added.
func TestAnswersReparseToTheirObjects(t *testing.T) {
	want := parser.ParseText(classesIRR, "RADB")
	s := NewServer(irr.New(want))
	for _, tc := range []struct {
		query  string
		object func(x *ir.IR) any
	}{
		{"AS64500", func(x *ir.IR) any { return x.AutNums[64500] }},
		{"AS-EXAMPLE", func(x *ir.IR) any { return x.AsSets["AS-EXAMPLE"] }},
		{"RS-EXAMPLE", func(x *ir.IR) any { return x.RouteSets["RS-EXAMPLE"] }},
		{"PRNG-EXAMPLE", func(x *ir.IR) any { return x.PeeringSets["PRNG-EXAMPLE"] }},
		{"FLTR-EXAMPLE", func(x *ir.IR) any { return x.FilterSets["FLTR-EXAMPLE"] }},
		{"RTRS-EXAMPLE", func(x *ir.IR) any { return x.RtrSets["RTRS-EXAMPLE"] }},
		{"192.0.2.0/24", func(x *ir.IR) any { return x.Routes }},
	} {
		resp := s.Query(tc.query)
		got := parser.ParseText(resp, "RADB")
		if len(got.Errors) > 0 || !reflect.DeepEqual(tc.object(got), tc.object(want)) {
			t.Errorf("%s: answer %q reparses to %+v (errors %v), want %+v",
				tc.query, resp, tc.object(got), got.Errors, tc.object(want))
		}
	}
}
