package bgpsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// randomRoutes draws n routes covering what the dump format carries:
// both families, prepended paths, AS-set routes and communities.
func randomRoutes(rng *rand.Rand, n int) []Route {
	routes := make([]Route, n)
	for i := range routes {
		var p netip.Prefix
		if rng.Intn(4) == 0 {
			var a [16]byte
			rng.Read(a[:8])
			a[0] = 0x20
			p = netip.PrefixFrom(netip.AddrFrom16(a), 16+rng.Intn(49))
		} else {
			var a [4]byte
			rng.Read(a[:])
			p = netip.PrefixFrom(netip.AddrFrom4(a), 8+rng.Intn(17))
		}
		r := Route{Prefix: prefix.FromNetip(p)}
		for hops := 1 + rng.Intn(8); hops > 0; hops-- {
			asn := ir.ASN(1 + rng.Intn(70000))
			for rep := 1 + rng.Intn(3)/2; rep > 0; rep-- { // one hop in three is prepended
				r.Path = append(r.Path, asn)
			}
		}
		r.HasASSet = rng.Intn(10) == 0
		for c := rng.Intn(6) - 3; c > 0; c-- {
			r.Communities = append(r.Communities, NewCommunity(uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))))
		}
		routes[i] = r
	}
	return routes
}

// TestDumpRoundTripRandom writes random routes, sprinkles the blank and '#'
// lines a hand-edited dump has between them, and reads back the same
// routes.
func TestDumpRoundTripRandom(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Past several path slabs and into the full-size route chunks.
		want := randomRoutes(rng, 5*routeChunk/2)
		var buf bytes.Buffer
		if err := WriteDump(&buf, want); err != nil {
			t.Fatal(err)
		}
		var noisy bytes.Buffer
		noisy.WriteString("# collector dump\n\n")
		for _, line := range strings.SplitAfter(buf.String(), "\n") {
			switch rng.Intn(50) {
			case 0:
				noisy.WriteString("\n")
			case 1:
				noisy.WriteString("  # a comment\n")
			case 2:
				line = "\t " + strings.TrimSuffix(line, "\n") + " \r\n"
			}
			noisy.WriteString(line)
		}
		got, err := ReadDump(&noisy)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: read %d routes, wrote %d", seed, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("seed %d: route %d = %+v, want %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// FuzzReadDump holds ReadDump to two properties on arbitrary input: it
// reports malformed text as an error instead of panicking, and what it
// accepts survives WriteDump → ReadDump unchanged.
func FuzzReadDump(f *testing.F) {
	f.Add([]byte("192.0.2.0/24|3 2 2 1\n2001:db8::/32|7 {5,6}|65535:666 1:2\n"))
	f.Add([]byte("# header\n\n \t198.51.100.0/24|1|no-export\n"))
	f.Add([]byte("192.0.2.0/24|\n"))
	f.Add([]byte("192.0.2.0/24|1 {x}\n|\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		routes, err := ReadDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteDump(&buf, routes); err != nil {
			t.Fatal(err)
		}
		again, err := ReadDump(&buf)
		if err != nil {
			t.Fatalf("rewritten dump does not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(again, routes) {
			t.Fatalf("round trip changed the routes:\n%+v\nvs\n%+v", again, routes)
		}
	})
}

// TestReadDumpErrorLines pins each error to the line that caused it.
func TestReadDumpErrorLines(t *testing.T) {
	const ok = "192.0.2.0/24|1 2\n"
	for _, tc := range []struct{ text, want string }{
		{ok + "no-pipe-here\n", "line 2: missing '|'"},
		{"# c\n\n" + ok + "banana|1 2 3\n", "line 4: prefix:"},
		{ok + ok + "192.0.2.0/24|1 x 3\n", `line 3: bad ASN "x"`},
		{ok + "192.0.2.0/24|1 {x,4}\n", `line 2: bad ASN "x"`},
		{"192.0.2.0/24| \t\n", "line 1: empty path"},
		{ok + "192.0.2.0/24|1 2|65535:66x\n", `line 2: bgpsim: bad community "65535:66x"`},
		{ok + "192.0.2.0/24|1 4294967296\n", `line 2: bad ASN "4294967296"`},
	} {
		_, err := ReadDump(strings.NewReader(tc.text))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ReadDump(%q) = %v, want an error containing %q", tc.text, err, tc.want)
		}
	}
	// An AS-set hop keeps its first member, whatever follows the comma.
	got, err := ReadDump(strings.NewReader("192.0.2.0/24|1 {4,x}\n"))
	if err != nil || !got[0].HasASSet || !reflect.DeepEqual(got[0].Path, []ir.ASN{1, 4}) {
		t.Errorf("AS-set route = %+v, %v", got, err)
	}
}

// TestReadDumpPathsAreCapped: paths are cut from a shared slab, so each
// must end where the next begins — an append reallocates instead of
// overwriting the neighbour.
func TestReadDumpPathsAreCapped(t *testing.T) {
	var text strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&text, "192.0.2.0/24|%d %d %d\n", 3*i+1, 3*i+2, 3*i+3)
	}
	routes, err := ReadDump(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := range routes {
		if cap(routes[i].Path) != len(routes[i].Path) {
			t.Fatalf("route %d: path has cap %d past len %d", i, cap(routes[i].Path), len(routes[i].Path))
		}
		routes[i].Path = append(routes[i].Path, 0xdead)
	}
	for i := range routes {
		want := []ir.ASN{ir.ASN(3*i + 1), ir.ASN(3*i + 2), ir.ASN(3*i + 3), 0xdead}
		if !reflect.DeepEqual(routes[i].Path, want) {
			t.Fatalf("route %d: path = %v after appending to every route, want %v", i, routes[i].Path, want)
		}
	}
}
