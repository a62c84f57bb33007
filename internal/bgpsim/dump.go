package bgpsim

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
)

// WriteDump serializes routes in the pipe-separated text format used
// throughout this repository as the stand-in for MRT table dumps:
//
//	<prefix>|<asn> <asn> ... <asn>[|<community> <community> ...]
//
// An AS-set hop is rendered as {a,b}; the paper ignores such routes and
// so does the verifier. The community field is omitted when empty.
func WriteDump(w io.Writer, routes []Route) error {
	bw := bufio.NewWriter(w)
	for _, r := range routes {
		bw.WriteString(r.Prefix.String())
		bw.WriteByte('|')
		for i, a := range r.Path {
			if i > 0 {
				bw.WriteByte(' ')
			}
			if r.HasASSet && i == len(r.Path)-1 {
				fmt.Fprintf(bw, "{%d}", uint32(a))
				continue
			}
			bw.WriteString(strconv.FormatUint(uint64(a), 10))
		}
		if len(r.Communities) > 0 {
			bw.WriteByte('|')
			for i, c := range r.Communities {
				if i > 0 {
					bw.WriteByte(' ')
				}
				bw.WriteString(c.String())
			}
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// ReadDump allocates paths pathSlab ASNs at a time and routes up to
// routeChunk at a time (chunks double from 64, so a one-line dump
// stays small).
const (
	pathSlab   = 16 << 10
	routeChunk = 32 << 10
)

// ReadDump parses the format written by WriteDump. Lines are parsed in
// place from the scanner's buffer; each route's Path is cut from a
// shared slab with its capacity capped to its length, so appending to
// one route's path never writes into the next route's; and routes
// collect in chunks joined once at the end, so the result is exact-size
// and no route is copied more than once.
func ReadDump(r io.Reader) ([]Route, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var chunks [][]Route
	chunk := make([]Route, 0, 64)
	var slab []ir.ASN
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
		n := 0
		for f, rest := nextField(pathStr); len(f) > 0; f, rest = nextField(rest) {
			n++
		}
		if n == 0 {
			return nil, fmt.Errorf("bgpsim: line %d: empty path", lineNo)
		}
		if len(slab) < n {
			slab = make([]ir.ASN, max(pathSlab, n))
		}
		route.Path, slab = slab[:0:n], slab[n:]
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
		if len(chunk) == cap(chunk) {
			chunks = append(chunks, chunk)
			chunk = make([]Route, 0, min(2*cap(chunk), routeChunk))
		}
		chunk = append(chunk, route)
	}
	return slices.Concat(append(chunks, chunk)...), sc.Err()
}

var pipe = []byte{'|'}

// nextField returns b's first field, as strings.Fields would cut it
// from ASCII text, and what follows it; the field is empty when b holds
// only white space.
func nextField(b []byte) (field, rest []byte) {
	isSpace := func(c byte) bool { return c == ' ' || c-'\t' < 5 }
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	i := 0
	for i < len(b) && !isSpace(b[i]) {
		i++
	}
	return b[:i], b[i:]
}
