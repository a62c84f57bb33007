package bgpsim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strconv"
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
		// Enough lines that every range holds thousands at -cpu 4.
		want := randomRoutes(rng, 80_000)
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

// readDumpReference is the scanner-based reader ReadDump replaced, kept
// as its reference: one line at a time, every prefix and ASN through a
// string.
func readDumpReference(r io.Reader) ([]Route, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var routes []Route
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		pfxStr, rest, ok := bytes.Cut(line, pipe)
		if !ok {
			return nil, fmt.Errorf("bgpsim: line %d: missing '|'", lineNo)
		}
		pathStr, commStr, _ := bytes.Cut(rest, pipe)
		p, err := prefix.Parse(string(pfxStr))
		if err != nil {
			return nil, fmt.Errorf("bgpsim: line %d: %v", lineNo, err)
		}
		route := Route{Prefix: p}
		for f, rest := nextField(commStr); len(f) > 0; f, rest = nextField(rest) {
			c, err := ParseCommunity(string(f))
			if err != nil {
				return nil, fmt.Errorf("bgpsim: line %d: %v", lineNo, err)
			}
			route.Communities = append(route.Communities, c)
		}
		if f, _ := nextField(pathStr); len(f) == 0 {
			return nil, fmt.Errorf("bgpsim: line %d: empty path", lineNo)
		}
		for f, rest := nextField(pathStr); len(f) > 0; f, rest = nextField(rest) {
			if f[0] == '{' {
				route.HasASSet = true
				f = bytes.Trim(f, "{}")
				// Take the first member as a representative.
				if i := bytes.IndexByte(f, ','); i >= 0 {
					f = f[:i]
				}
			}
			asn, err := strconv.ParseUint(string(f), 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bgpsim: line %d: bad ASN %q", lineNo, f)
			}
			route.Path = append(route.Path, ir.ASN(asn))
		}
		routes = append(routes, route)
	}
	return routes, sc.Err()
}

// FuzzReadDumpMatchesReference holds ReadDump to the reader it replaced:
// the same routes, or the same error for the same first bad line. Run at
// -cpu 1,2,4, the seeds cut the text into one, two and four ranges.
func FuzzReadDumpMatchesReference(f *testing.F) {
	f.Add([]byte("192.0.2.0/24|3 2 2 1\r\n\r\n# comment\r\n198.51.100.0/24|1 2\r\n"))
	f.Add([]byte("# header\n\n  # indented comment\n\t192.0.2.0/24|1 2 \t\n\n"))
	f.Add([]byte("2001:db8::/32|7 {5,6}|65535:666 1:2\n2001:DB8:0:0::1/48|1 2\n"))
	f.Add([]byte("192.0.2.0/24|1 {4,x}\n192.0.2.0/24|1 {}\n"))
	f.Add([]byte("192.0.2.0/24|1 2\n1.02.3.4/24|1 2\n"))
	f.Add([]byte("192.0.2.0/24|1 2\n10.0.0.0/08|1 2\n"))
	f.Add([]byte("192.0.2.0/24|1 4294967295\n192.0.2.0/24|1 4294967296\n"))
	f.Add([]byte("192.0.2.0/24|1 00000000007\n192.0.2.0/24|+5 2\n"))
	f.Add([]byte("192.0.2.7/24 |1 2\n 192.0.2.0/33|1\n256.0.0.0/8|1\n"))
	f.Add([]byte("192.0.2.7/24|1 2\n0.0.0.0/0|1 2\n255.255.255.255/32|1 2\n"))
	f.Add([]byte("192.0.2.0/24|1 2|no-export\nno-pipe\n192.0.2.0/24|x\n"))
	f.Add([]byte("192.0.2.0/24|1 2   \n192.0.2.0/24|\t\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readDumpReference(bytes.NewReader(data))
		got, err := ReadDump(bytes.NewReader(data))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err != nil {
			if got != nil {
				t.Fatalf("%d routes returned with error %v", len(got), err)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("routes differ from the reference:\n%+v\nvs\n%+v", got, want)
		}
	})
}

// TestReadDumpOverlongLine: a line past 16 MiB fails the read with its
// number, and no route comes back with the error.
func TestReadDumpOverlongLine(t *testing.T) {
	text := "192.0.2.0/24|1 2\n192.0.2.0/24|" + strings.Repeat("3 ", 8<<20+1) + "\n198.51.100.0/24|1 2\n"
	routes, err := ReadDump(strings.NewReader(text))
	if want := "bgpsim: line 2: longer than 16 MiB"; err == nil || err.Error() != want || routes != nil {
		t.Errorf("ReadDump = %d routes, %v; want no routes and %q", len(routes), err, want)
	}
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
