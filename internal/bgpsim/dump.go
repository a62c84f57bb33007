package bgpsim

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/netip"
	"runtime"
	"strconv"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/shard"
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

// maxLine is the longest line ReadDump accepts.
const maxLine = 16 << 20

// ReadDump parses the format written by WriteDump. It reads the whole
// text, a file in one allocation of its Stat size, and parses it on
// GOMAXPROCS goroutines, each over one range of whole lines, in two
// passes: a count pass sizes one exact-size route slice and one path
// slab, and a fill pass parses every range into its own window of both.
// Each route's Path is cut from the slab with its capacity capped to its
// length, so appending to one route's path never writes into the next
// route's. Lines are parsed where they lie: a plain-digit ASN and a
// canonical dotted-quad prefix never become strings. On malformed input
// it returns no routes and the error of the first bad line in the file.
func ReadDump(r io.Reader) ([]Route, error) {
	text, err := readAll(r)
	if err != nil {
		return nil, err
	}
	parts := cutLines(text, runtime.GOMAXPROCS(0))
	shard.Each(parts, (*dumpRange).count)
	lines, routes, hops := 0, 0, 0
	for p := range parts {
		pt := &parts[p]
		pt.before = lines
		lines, routes, hops = lines+pt.lines, routes+pt.nRoutes, hops+pt.nHops
	}
	var all []Route
	if routes > 0 {
		all = make([]Route, routes)
	}
	rs, ps := all, make([]ir.ASN, hops)
	for p := range parts {
		pt := &parts[p]
		pt.routes, rs = rs[:pt.nRoutes], rs[pt.nRoutes:]
		pt.path, ps = ps[:pt.nHops], ps[pt.nHops:]
	}
	shard.Each(parts, (*dumpRange).fill)
	for p := range parts {
		if parts[p].err != nil {
			return nil, parts[p].err
		}
	}
	return all, nil
}

// readAll reads r to its end; a file is read into a buffer of its size.
func readAll(r io.Reader) ([]byte, error) {
	var buf bytes.Buffer
	if f, ok := r.(interface{ Stat() (fs.FileInfo, error) }); ok {
		if fi, err := f.Stat(); err == nil {
			buf.Grow(int(fi.Size()) + bytes.MinRead)
		}
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// dumpRange is one range of whole lines: what the count pass finds
// there, the number of lines before it, and the windows the fill pass
// parses it into.
type dumpRange struct {
	text                  []byte
	lines, nRoutes, nHops int
	before                int
	routes                []Route
	path                  []ir.ASN
	err                   error
}

// cutLines splits text into n ranges of about equal size, each ending at
// a line end.
func cutLines(text []byte, n int) []dumpRange {
	parts := make([]dumpRange, n)
	lo := 0
	for p := range parts {
		hi := len(text)
		if p < n-1 {
			hi = max(lo, (p+1)*len(text)/n)
			if i := bytes.IndexByte(text[hi:], '\n'); i >= 0 {
				hi += i + 1
			} else {
				hi = len(text)
			}
		}
		parts[p].text, lo = text[lo:hi], hi
	}
	return parts
}

// nextLine cuts text's first line, without its '\n', from the rest.
func nextLine(text []byte) (line, rest []byte) {
	if i := bytes.IndexByte(text, '\n'); i >= 0 {
		return text[:i], text[i+1:]
	}
	return text, nil
}

// count counts the range's lines, routes and path hops.
func (d *dumpRange) count() {
	for rest := d.text; len(rest) > 0; {
		var line []byte
		line, rest = nextLine(rest)
		d.lines++
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		d.nRoutes++
		_, fields, _ := bytes.Cut(line, pipe)
		inField := false
		for _, c := range fields {
			if c == '|' {
				break
			}
			if !asciiSpace[c] && !inField {
				d.nHops++
			}
			inField = !asciiSpace[c]
		}
	}
}

// fill parses the range into its windows, stopping at its first bad line.
func (d *dumpRange) fill() {
	lineNo, ri, hi := d.before, 0, 0
	for rest := d.text; len(rest) > 0; {
		var line []byte
		line, rest = nextLine(rest)
		lineNo++
		if len(line) > maxLine {
			d.err = fmt.Errorf("bgpsim: line %d: longer than 16 MiB", lineNo)
			return
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		n, err := parseRoute(line, &d.routes[ri], d.path[hi:])
		if err != nil {
			d.err = fmt.Errorf("bgpsim: line %d: %v", lineNo, err)
			return
		}
		ri, hi = ri+1, hi+n
	}
}

var pipe = []byte{'|'}

// parseRoute parses one trimmed route line into r. The path goes into
// the front of free, which the count pass made room for; parseRoute
// returns its length.
func parseRoute(line []byte, r *Route, free []ir.ASN) (int, error) {
	pfxStr, rest, ok := bytes.Cut(line, pipe)
	if !ok {
		return 0, errors.New("missing '|'")
	}
	pathStr, commStr, _ := bytes.Cut(rest, pipe)
	p, err := parsePrefix(pfxStr)
	if err != nil {
		return 0, err
	}
	r.Prefix = p
	for f, rest := nextField(commStr); len(f) > 0; f, rest = nextField(rest) {
		c, err := ParseCommunity(string(f))
		if err != nil {
			return 0, err
		}
		r.Communities = append(r.Communities, c)
	}
	n := 0
	for i := 0; i < len(pathStr); {
		if asciiSpace[pathStr[i]] {
			i++
			continue
		}
		// One pass over the hop reads it if it is plain digits.
		start, v, plain := i, uint64(0), true
		for ; i < len(pathStr) && !asciiSpace[pathStr[i]]; i++ {
			d := pathStr[i] - '0'
			plain = plain && d <= 9
			v = v*10 + uint64(d)
		}
		f := pathStr[start:i]
		if !plain || len(f) > 10 || v > 1<<32-1 {
			if f[0] == '{' {
				r.HasASSet = true
				f = bytes.Trim(f, "{}")
				// Take the first member as a representative.
				if i := bytes.IndexByte(f, ','); i >= 0 {
					f = f[:i]
				}
			}
			asn, err := strconv.ParseUint(string(f), 10, 32)
			if err != nil {
				return 0, fmt.Errorf("bad ASN %q", f)
			}
			v = asn
		}
		free[n] = ir.ASN(v)
		n++
	}
	if n == 0 {
		return 0, errors.New("empty path")
	}
	r.Path = free[:n:n]
	return n, nil
}

// parsePrefix reads a canonical dotted quad, a.b.c.d/n with no leading
// zeros, in place and leaves every other form (IPv6, leading zeros,
// spaces, junk) to prefix.Parse, so what it accepts, the canonical form
// and the error text are netip's.
func parsePrefix(b []byte) (prefix.Prefix, error) {
	var a [4]byte
	i := 0
	for k := 0; ; k++ {
		start, v := i, 0
		for i < len(b) && i-start < 3 && b[i]-'0' <= 9 {
			v = v*10 + int(b[i]-'0')
			i++
		}
		if i == start || i-start > 1 && b[start] == '0' {
			break
		}
		if k == len(a) {
			if i < len(b) || v > 32 {
				break
			}
			return prefix.FromNetip(netip.PrefixFrom(netip.AddrFrom4(a), v)), nil
		}
		sep := byte('.')
		if k == len(a)-1 {
			sep = '/'
		}
		if v > 255 || i == len(b) || b[i] != sep {
			break
		}
		a[k] = byte(v)
		i++
	}
	return prefix.Parse(string(b))
}

// nextField returns b's first field, as strings.Fields would cut it
// from ASCII text, and what follows it; the field is empty when b holds
// only white space.
func nextField(b []byte) (field, rest []byte) {
	for len(b) > 0 && asciiSpace[b[0]] {
		b = b[1:]
	}
	i := 0
	for i < len(b) && !asciiSpace[b[i]] {
		i++
	}
	return b[:i], b[i:]
}

var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}
