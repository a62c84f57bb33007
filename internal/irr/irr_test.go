package irr

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rpslyzer/internal/parser"
	"rpslyzer/internal/prefix"
)

func dbFrom(t *testing.T, text string) *Database {
	t.Helper()
	return New(parser.ParseText(text, "TEST"))
}

func TestRouteTable(t *testing.T) {
	db := dbFrom(t, `
route: 192.0.2.0/24
origin: AS1

route: 198.51.100.0/24
origin: AS1

route: 203.0.113.0/24
origin: AS2
`)
	t1, ok := db.RouteTable(1)
	if !ok || t1.Len() != 2 {
		t.Fatalf("AS1 table = %v ok=%v", t1, ok)
	}
	if !t1.Contains(prefix.MustParse("192.0.2.0/24")) {
		t.Error("AS1 should originate 192.0.2.0/24")
	}
	if _, ok := db.RouteTable(99); ok {
		t.Error("AS99 should be a zero-route AS")
	}
}

func TestFlattenSimple(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-PARENT
members: AS1, AS-CHILD

as-set: AS-CHILD
members: AS2, AS3
`)
	f, ok := db.AsSet("AS-PARENT")
	if !ok {
		t.Fatal("AS-PARENT unrecorded")
	}
	if len(f.ASNs) != 3 {
		t.Errorf("ASNs = %v", f.ASNs)
	}
	if f.Depth != 2 || f.InLoop || !f.Recursive {
		t.Errorf("depth=%d loop=%v rec=%v", f.Depth, f.InLoop, f.Recursive)
	}
	child, _ := db.AsSet("AS-CHILD")
	if child.Depth != 1 || child.Recursive {
		t.Errorf("child depth=%d rec=%v", child.Depth, child.Recursive)
	}
}

func TestFlattenLoop(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-A
members: AS1, AS-B

as-set: AS-B
members: AS2, AS-A

as-set: AS-SELF
members: AS5, AS-SELF
`)
	a, _ := db.AsSet("AS-A")
	b, _ := db.AsSet("AS-B")
	if !a.InLoop || !b.InLoop {
		t.Error("A and B should be flagged as in a loop")
	}
	// Both sides of the loop see the union.
	if len(a.ASNs) != 2 || len(b.ASNs) != 2 {
		t.Errorf("loop closure: A=%v B=%v", a.ASNs, b.ASNs)
	}
	s, _ := db.AsSet("AS-SELF")
	if !s.InLoop {
		t.Error("self-loop should be flagged")
	}
	if _, ok := s.ASNs[5]; !ok {
		t.Error("self-loop set should keep its ASN member")
	}
}

func TestFlattenUnrecordedRef(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-X
members: AS1, AS-MISSING
`)
	f, _ := db.AsSet("AS-X")
	if len(f.Unrecorded) != 1 || f.Unrecorded[0] != "AS-MISSING" {
		t.Errorf("unrecorded = %v", f.Unrecorded)
	}
}

func TestFlattenDeepChainDepth(t *testing.T) {
	var b strings.Builder
	const depth = 50
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "as-set: AS-L%d\n", i)
		if i < depth-1 {
			fmt.Fprintf(&b, "members: AS-L%d\n", i+1)
		} else {
			fmt.Fprintf(&b, "members: AS1\n")
		}
		b.WriteString("\n")
	}
	db := dbFrom(t, b.String())
	top, _ := db.AsSet("AS-L0")
	if top.Depth != depth {
		t.Errorf("depth = %d, want %d", top.Depth, depth)
	}
	if len(top.ASNs) != 1 {
		t.Errorf("ASNs = %v", top.ASNs)
	}
}

func TestAsSetContains(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-FOO
members: AS1
`)
	if c, rec := db.AsSetContains("AS-FOO", 1); !c || !rec {
		t.Error("member lookup failed")
	}
	if c, rec := db.AsSetContains("AS-FOO", 2); c || !rec {
		t.Error("non-member misreported")
	}
	if _, rec := db.AsSetContains("AS-NOPE", 1); rec {
		t.Error("unrecorded set misreported as recorded")
	}
}

func TestAsSetPrefixTable(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-FOO
members: AS1, AS2

route: 192.0.2.0/24
origin: AS1

route: 198.51.100.0/24
origin: AS2
`)
	tbl, ok := db.AsSetPrefixTable("AS-FOO")
	if !ok || tbl.Len() != 2 {
		t.Fatalf("table = %v ok = %v", tbl, ok)
	}
	// Cached second call returns the same table.
	tbl2, _ := db.AsSetPrefixTable("AS-FOO")
	if tbl2 != tbl {
		t.Error("table not cached")
	}
	if _, ok := db.AsSetPrefixTable("AS-NOPE"); ok {
		t.Error("unrecorded set produced a table")
	}
}

func TestMembersByReference(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-COOP
members: AS1
mbrs-by-ref: MNT-B

aut-num: AS2
member-of: AS-COOP
mnt-by: MNT-B

aut-num: AS3
member-of: AS-COOP
mnt-by: MNT-C
`)
	f, _ := db.AsSet("AS-COOP")
	if _, ok := f.ASNs[2]; !ok {
		t.Error("AS2 should join via mbrs-by-ref")
	}
	if _, ok := f.ASNs[3]; ok {
		t.Error("AS3 must not join: maintainer not allowed")
	}
}

func TestMembersByReferenceAny(t *testing.T) {
	db := dbFrom(t, `
route-set: RS-OPEN
mbrs-by-ref: ANY

route: 192.0.2.0/24
origin: AS1
member-of: RS-OPEN
mnt-by: MNT-WHOEVER
`)
	f, ok := db.RouteSet("RS-OPEN")
	if !ok {
		t.Fatal("RS-OPEN unrecorded")
	}
	if !f.Table.Contains(prefix.MustParse("192.0.2.0/24")) {
		t.Error("route should join open route-set")
	}
}

func TestRouteSetFlattening(t *testing.T) {
	db := dbFrom(t, `
route-set: RS-TOP
members: 203.0.113.0/24, RS-MID^+, AS7

route-set: RS-MID
members: 192.0.2.0/24

route: 198.51.100.0/24
origin: AS7
`)
	f, ok := db.RouteSet("RS-TOP")
	if !ok {
		t.Fatal("RS-TOP unrecorded")
	}
	cases := []struct {
		p    string
		want bool
	}{
		{"203.0.113.0/24", true},
		{"192.0.2.0/24", true},
		{"192.0.2.128/25", true}, // via RS-MID^+
		{"198.51.100.0/24", true},
		{"198.51.100.0/25", false},
		{"10.0.0.0/8", false},
	}
	for _, tc := range cases {
		if got := f.Table.Contains(prefix.MustParse(tc.p)); got != tc.want {
			t.Errorf("RS-TOP contains %s = %v, want %v", tc.p, got, tc.want)
		}
	}
	if _, ok := f.Origins[7]; !ok {
		t.Error("AS7 should be recorded as an origin member")
	}
}

func TestRouteSetWithAsSetMember(t *testing.T) {
	db := dbFrom(t, `
route-set: RS-MIXED
members: AS-GROUP

as-set: AS-GROUP
members: AS1

route: 192.0.2.0/24
origin: AS1
`)
	f, _ := db.RouteSet("RS-MIXED")
	if !f.Table.Contains(prefix.MustParse("192.0.2.0/24")) {
		t.Error("as-set member routes missing from route-set")
	}
	if _, ok := f.Origins[1]; !ok {
		t.Error("as-set member origin missing")
	}
}

func TestRouteSetLoop(t *testing.T) {
	db := dbFrom(t, `
route-set: RS-A
members: RS-B, 192.0.2.0/24

route-set: RS-B
members: RS-A, 198.51.100.0/24
`)
	a, _ := db.RouteSet("RS-A")
	b, _ := db.RouteSet("RS-B")
	if !a.InLoop || !b.InLoop {
		t.Error("loop not detected")
	}
	for _, p := range []string{"192.0.2.0/24", "198.51.100.0/24"} {
		if !a.Table.Contains(prefix.MustParse(p)) || !b.Table.Contains(prefix.MustParse(p)) {
			t.Errorf("loop union missing %s", p)
		}
	}
}

func TestRouteSetUnrecordedRef(t *testing.T) {
	db := dbFrom(t, `
route-set: RS-X
members: RS-GONE, 192.0.2.0/24
`)
	f, _ := db.RouteSet("RS-X")
	if len(f.Unrecorded) != 1 || f.Unrecorded[0] != "RS-GONE" {
		t.Errorf("unrecorded = %v", f.Unrecorded)
	}
}

func TestTarjanRandomizedAgainstReachability(t *testing.T) {
	// Property: two nodes share an SCC iff they reach each other.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		n := 2 + rng.Intn(10)
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("N%d", i)
		}
		edges := make(map[string][]string)
		for i := 0; i < n*2; i++ {
			a, b := nodes[rng.Intn(n)], nodes[rng.Intn(n)]
			edges[a] = append(edges[a], b)
		}
		sccs := tarjan(nodes, edges)
		sccOf := map[string]int{}
		for i, scc := range sccs {
			for _, nd := range scc {
				sccOf[nd] = i
			}
		}
		reach := func(from, to string) bool {
			seen := map[string]bool{from: true}
			stack := []string{from}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if cur == to {
					return true
				}
				for _, nx := range edges[cur] {
					if !seen[nx] {
						seen[nx] = true
						stack = append(stack, nx)
					}
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				same := sccOf[nodes[i]] == sccOf[nodes[j]]
				mutual := reach(nodes[i], nodes[j]) && reach(nodes[j], nodes[i])
				if same != mutual {
					t.Fatalf("iter %d: SCC(%s,%s)=%v but mutual-reach=%v",
						iter, nodes[i], nodes[j], same, mutual)
				}
			}
		}
		// Reverse-topological order: edges out of a component must go
		// to earlier components.
		for from, tos := range edges {
			for _, to := range tos {
				if sccOf[from] != sccOf[to] && sccOf[from] < sccOf[to] {
					t.Fatalf("iter %d: condensation order violated %s->%s", iter, from, to)
				}
			}
		}
	}
}

func TestFilterSetAndPeeringSetLookups(t *testing.T) {
	db := dbFrom(t, `
filter-set: FLTR-X
filter: ANY

peering-set: PRNG-X
peering: AS1
`)
	if _, ok := db.FilterSet("FLTR-X"); !ok {
		t.Error("filter-set lookup failed")
	}
	if _, ok := db.PeeringSet("PRNG-X"); !ok {
		t.Error("peering-set lookup failed")
	}
	if _, ok := db.FilterSet("FLTR-NONE"); ok {
		t.Error("missing filter-set reported present")
	}
}

func TestAutNumLookup(t *testing.T) {
	db := dbFrom(t, "aut-num: AS42\n")
	if _, ok := db.AutNum(42); !ok {
		t.Error("aut-num lookup failed")
	}
	if _, ok := db.AutNum(43); ok {
		t.Error("missing aut-num reported present")
	}
}

func TestConcurrentAsSetPrefixTable(t *testing.T) {
	db := dbFrom(t, `
as-set: AS-BIG
members: AS1, AS2, AS3

route: 192.0.2.0/24
origin: AS1
`)
	done := make(chan *prefix.Table, 16)
	for i := 0; i < 16; i++ {
		go func() {
			tbl, _ := db.AsSetPrefixTable("AS-BIG")
			done <- tbl
		}()
	}
	first := <-done
	for i := 1; i < 16; i++ {
		if got := <-done; got != first {
			t.Fatal("concurrent callers got different cached tables")
		}
	}
}
