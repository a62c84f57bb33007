package api

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/report"
	"rpslyzer/internal/reportstore"
	"rpslyzer/internal/trace"
	"rpslyzer/internal/verify"
)

// The renderer appends every response body byte by byte, in exactly
// the bytes encoding/json writes for the wire types in server.go: the
// same field order and omitempty rules, map keys sorted, strings
// HTML-safe escaped. Nothing is built per row and nothing is
// reflected over. TestRenderMatchesEncodingJSON holds the bodies to
// encoding/json's output for the wire types; FuzzAppendJSONString
// holds the string escaping.

// bufPool holds render scratch buffers. A render hands the cache an
// exact-size copy, so the pooled capacity is never retained by a page.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 32<<10); return &b }}

// maxPooledBuf keeps a rare huge page's buffer out of the pool.
const maxPooledBuf = 1 << 20

// renderBody runs fill over a pooled buffer and returns an exact-size
// copy of what it appended, ending in '\n'.
func renderBody(fill func(b []byte) []byte) []byte {
	bp := bufPool.Get().(*[]byte)
	b := fill((*bp)[:0])
	out := make([]byte, len(b)+1)
	copy(out, b)
	out[len(b)] = '\n'
	if cap(b) <= maxPooledBuf {
		*bp = b[:0]
		bufPool.Put(bp)
	}
	return out
}

// appendError appends the body of a non-200 /v1/ answer.
func appendError(b []byte, msg string) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	return append(b, '}')
}

// noSnapshotBody answers every /v1/ request before the first swap.
var noSnapshotBody = append(appendError(nil, "no snapshot loaded yet"), '\n')

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes encoding/json writes as they are:
// everything printable but '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendJSONString appends s as a JSON string the way encoding/json's
// HTML-safe encoder does: '<', '>' and '&' as \u003c, \u003e and
// \u0026, control bytes as their short or \u00XX escapes, each byte of
// invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u2028/\u2029.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends a finite f as encoding/json does: ES6 number
// form, exponent only below 1e-6 or from 1e21, unpadded.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		// encoding/json refuses these too; no response carries one.
		panic("api: cannot encode " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }

func appendInt(b []byte, v int64) []byte { return strconv.AppendInt(b, v, 10) }

// quotedNames holds name(v), JSON-quoted, for every value of an 8-bit
// enum, out-of-range values included.
func quotedNames(name func(v uint8) string) *[256]string {
	var t [256]string
	for v := range t {
		t[v] = string(appendJSONString(nil, name(uint8(v))))
	}
	return &t
}

var (
	statusLit = quotedNames(func(v uint8) string { return verify.Status(v).String() })
	reasonLit = quotedNames(func(v uint8) string { return verify.ReasonKind(v).String() })
	causeLit  = quotedNames(func(v uint8) string { return report.Cause(v).String() })
	dirLit    = quotedNames(func(v uint8) string { return ir.Direction(v).String() })

	// statusKeys is the statuses in encoding/json's map-key order.
	statusKeys = func() []verify.Status {
		keys := make([]verify.Status, report.NumStatuses)
		for i := range keys {
			keys[i] = verify.Status(i)
		}
		slices.SortFunc(keys, func(a, b verify.Status) int {
			return strings.Compare(a.String(), b.String())
		})
		return keys
	}()
)

// appendStatusCounts appends c as the {"<status>": count} object of
// every status.
func appendStatusCounts(b []byte, c *report.StatusCounts) []byte {
	b = append(b, '{')
	for i, st := range statusKeys {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, statusLit[st]...)
		b = append(b, ':')
		b = appendInt(b, c[st])
	}
	return append(b, '}')
}

// appendCauses appends key and the names of set's causes in [from, to]
// as a list, or nothing when there are none (omitempty).
func appendCauses(b []byte, key string, set report.CauseSet, from, to report.Cause) []byte {
	n := 0
	for c := from; c <= to; c++ {
		if !set.Has(c) {
			continue
		}
		if n == 0 {
			b = append(b, key...)
			b = append(b, '[')
		} else {
			b = append(b, ',')
		}
		b = append(b, causeLit[c]...)
		n++
	}
	if n > 0 {
		b = append(b, ']')
	}
	return b
}

func appendPrefix(b []byte, p prefix.Prefix) []byte {
	b = append(b, '"')
	if p.IsValid() {
		b = p.AppendTo(b)
	} else {
		b = append(b, "invalid Prefix"...)
	}
	return append(b, '"')
}

func appendASNs(b []byte, ases []ir.ASN) []byte {
	b = append(b, '[')
	for i, a := range ases {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendUint(b, uint64(a))
	}
	return append(b, ']')
}

func appendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	b = t.AppendFormat(b, time.RFC3339Nano)
	return append(b, '"')
}

// appendNextCursor appends the next_cursor field, or nothing at the
// end of the listing (omitempty). Cursors are "v1:<serial>:<offset>".
func appendNextCursor(b []byte, serial uint64, offset, total int) []byte {
	if offset >= total {
		return b
	}
	b = append(b, `,"next_cursor":"v1:`...)
	b = appendUint(b, serial)
	b = append(b, ':')
	b = appendInt(b, int64(offset))
	return append(b, '"')
}

// appendASPage appends the tail of an AS list envelope: the total, one
// page of ases and its cursor.
func appendASPage(b []byte, ases []ir.ASN, offset, limit int, serial uint64) []byte {
	end := min(offset+limit, len(ases))
	offset = min(offset, end)
	b = append(b, `,"total_ases":`...)
	b = appendInt(b, int64(len(ases)))
	b = append(b, `,"ases":`...)
	b = appendASNs(b, ases[offset:end])
	b = appendNextCursor(b, serial, end, len(ases))
	return append(b, '}')
}

// appendCheck appends one check as a CheckJSON object.
func appendCheck(b []byte, snap *reportstore.Snapshot, idx uint32) []byte {
	c := snap.Check(idx)
	route := snap.Route(c.Route)
	b = append(b, `{"prefix":`...)
	b = appendPrefix(b, route.Prefix)
	b = append(b, `,"path":`...)
	b = appendASNs(b, route.Path)
	b = append(b, `,"from":`...)
	b = appendUint(b, uint64(c.From))
	b = append(b, `,"to":`...)
	b = appendUint(b, uint64(c.To))
	b = append(b, `,"dir":`...)
	b = append(b, dirLit[c.Dir]...)
	b = append(b, `,"status":`...)
	b = append(b, statusLit[c.Status]...)
	if len(c.Reasons) > 0 {
		b = append(b, `,"reasons":[`...)
		for i, r := range c.Reasons {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"kind":`...)
			b = append(b, reasonLit[r.Kind]...)
			if r.ASN != 0 {
				b = append(b, `,"asn":`...)
				b = appendUint(b, uint64(r.ASN))
			}
			if r.Name != "" {
				b = append(b, `,"name":`...)
				b = appendJSONString(b, r.Name)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendRoute appends one route as a RouteJSON object.
func appendRoute(b []byte, snap *reportstore.Snapshot, idx uint32) []byte {
	rec := snap.Route(idx)
	b = append(b, `{"prefix":`...)
	b = appendPrefix(b, rec.Prefix)
	b = append(b, `,"path":`...)
	b = appendASNs(b, rec.Path)
	if rec.Ignored != "" {
		b = append(b, `,"ignored":`...)
		b = appendJSONString(b, rec.Ignored)
	}
	if rec.CheckLen > 0 {
		var counts report.StatusCounts
		for i := rec.CheckOff; i < rec.CheckOff+rec.CheckLen; i++ {
			counts.Add(snap.Check(i).Status)
		}
		b = append(b, `,"statuses":`...)
		b = appendStatusCounts(b, &counts)
	}
	return append(b, '}')
}

// appendHealthz appends the /healthz body: readiness, the serial served
// (0 before the first swap) and the watchdog's verdict.
func appendHealthz(b []byte, snap *reportstore.Snapshot, st trace.StatusReport) []byte {
	b = append(b, `{"ready":`...)
	b = strconv.AppendBool(b, snap != nil)
	b = append(b, `,"serial":`...)
	if snap != nil {
		b = appendUint(b, snap.Serial())
	} else {
		b = append(b, '0')
	}
	b = append(b, `,"health":`...)
	b = appendJSONString(b, st.HealthStr)
	for i, reason := range st.Reasons {
		if i == 0 {
			b = append(b, `,"reasons":[`...)
		} else {
			b = append(b, ',')
		}
		b = appendJSONString(b, reason)
	}
	if len(st.Reasons) > 0 {
		b = append(b, ']')
	}
	if st.StaleSecs != 0 {
		b = append(b, `,"staleness_seconds":`...)
		b = appendFloat(b, st.StaleSecs)
	}
	if st.ErrorRate != 0 {
		b = append(b, `,"error_rate":`...)
		b = appendFloat(b, st.ErrorRate)
	}
	return append(b, '}')
}
