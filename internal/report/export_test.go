package report

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rpslyzer/internal/bgpsim"
	"rpslyzer/internal/ir"
	"rpslyzer/internal/prefix"
	"rpslyzer/internal/verify"
)

func routeReport(t *testing.T, pfx string, path []ir.ASN, ignored string, checks ...verify.Check) verify.RouteReport {
	t.Helper()
	p, err := prefix.Parse(pfx)
	if err != nil {
		t.Fatalf("parse %q: %v", pfx, err)
	}
	return verify.RouteReport{
		Route:   bgpsim.Route{Prefix: p, Path: path},
		Ignored: ignored,
		Checks:  checks,
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := []verify.RouteReport{
		routeReport(t, "192.0.2.0/24", []ir.ASN{30, 20, 10}, "",
			chk(10, 20, ir.DirExport, verify.Verified),
			chk(10, 20, ir.DirImport, verify.Verified),
			chk(20, 30, ir.DirExport, verify.Verified),
			chk(20, 30, ir.DirImport, verify.Unverified,
				verify.Reason{Kind: verify.MatchFilter, ASN: 10, Name: "AS-CUSTOMERS"}),
		),
		routeReport(t, "2001:db8::/32", []ir.ASN{20, 20, 10}, "",
			chk(10, 20, ir.DirExport, verify.Relaxed,
				verify.Reason{Kind: verify.SpecExportSelf}),
			chk(10, 20, ir.DirImport, verify.Unrecorded,
				verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 10}),
		),
		routeReport(t, "198.51.100.0/24", []ir.ASN{40}, "single-as"),
	}
	// The first report's checks again, on the next line and at the end.
	again := func(pfx string) verify.RouteReport {
		return routeReport(t, pfx, in[0].Route.Path, "", in[0].Checks...)
	}
	in = slices.Insert(in, 1, again("192.0.3.0/24"))
	in = append(in, again("192.0.4.0/24"))

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, in); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := strings.Count(buf.String(), "\n"); got != len(in) {
		t.Fatalf("lines = %d, want %d", got, len(in))
	}

	var out []verify.RouteReport
	if err := ReadJSONL(&buf, func(rep verify.RouteReport) { out = append(out, rep) }); err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("reports = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i].Route.Prefix != out[i].Route.Prefix {
			t.Errorf("report %d prefix = %v, want %v", i, out[i].Route.Prefix, in[i].Route.Prefix)
		}
		if !reflect.DeepEqual(in[i].Route.Path, out[i].Route.Path) {
			t.Errorf("report %d path = %v, want %v", i, out[i].Route.Path, in[i].Route.Path)
		}
		if in[i].Ignored != out[i].Ignored {
			t.Errorf("report %d ignored = %q, want %q", i, out[i].Ignored, in[i].Ignored)
		}
		if !reflect.DeepEqual(in[i].Checks, out[i].Checks) {
			t.Errorf("report %d checks = %+v, want %+v", i, out[i].Checks, in[i].Checks)
		}
	}
	// A report whose checks equal the previous report's shares its
	// slice; equal checks after other ones are kept again.
	if &out[1].Checks[0] != &out[0].Checks[0] || &out[4].Checks[0] == &out[0].Checks[0] {
		t.Errorf("reports 0, 1 and 4 keep their equal checks at %p, %p and %p; want the first two shared",
			&out[0].Checks[0], &out[1].Checks[0], &out[4].Checks[0])
	}
}

// TestJSONLStableFieldOrder pins the serialized field order and the
// text form of statuses, directions, and reason kinds — the on-disk
// contract between `verify -json` and `reportd -import`.
func TestJSONLStableFieldOrder(t *testing.T) {
	var buf bytes.Buffer
	err := WriteJSONL(&buf, []verify.RouteReport{
		routeReport(t, "192.0.2.0/24", []ir.ASN{20, 10}, "",
			chk(10, 20, ir.DirImport, verify.Unrecorded,
				verify.Reason{Kind: verify.UnrecordedAutNum, ASN: 10}),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	for _, want := range []string{
		`"prefix":"192.0.2.0/24"`,
		`"path":[20,10]`,
		`"status":"unrecorded"`,
		`"dir":"import"`,
		`"kind":"UnrecordedAutNum"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("serialized line missing %s:\n%s", want, line)
		}
	}
	if !strings.HasPrefix(line, `{"prefix":`) {
		t.Errorf("prefix is not the leading field:\n%s", line)
	}
}

func TestReadJSONLErrors(t *testing.T) {
	// A bad prefix fails loudly rather than silently skipping reports.
	bad := `{"prefix":"not-a-prefix","path":[1]}` + "\n"
	if err := ReadJSONL(strings.NewReader(bad), func(verify.RouteReport) {}); err == nil {
		t.Error("bad prefix not rejected")
	}
	// Truncated JSON is an error, not EOF.
	trunc := `{"prefix":"192.0.2.0/24","pa`
	if err := ReadJSONL(strings.NewReader(trunc), func(verify.RouteReport) {}); err == nil {
		t.Error("truncated input not rejected")
	}
	// Empty input is fine.
	if err := ReadJSONL(strings.NewReader(""), func(verify.RouteReport) {}); err != nil {
		t.Errorf("empty input: %v", err)
	}
	// A report no verifier writes is rejected with its line: an unknown
	// ignored value, or checks beside an ignore marker.
	const check = `"checks":[{"from":1,"to":2,"dir":"import","status":"verified"}]`
	ok := `{"prefix":"192.0.2.0/24","path":[1],"ignored":"single-as"}` + "\n"
	for _, tail := range []string{`"ignored":"x",` + check, `"ignored":"x"`, `"ignored":"as-set",` + check} {
		in := ok + `{"prefix":"192.0.2.0/24","path":[2,1],` + tail + "}\n"
		err := ReadJSONL(strings.NewReader(in), func(verify.RouteReport) {})
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%s: error %v, want one naming line 2", tail, err)
		}
	}
	// So is a verified route whose checks do not cover its prepend-free
	// path, two per hop: none at all, a hop short, or a path of one AS.
	const two = `"checks":[{"from":1,"to":2,"dir":"export","status":"verified"},{"from":1,"to":2,"dir":"import","status":"verified"}]`
	for _, body := range []string{
		`"path":[64500,64501]`,
		`"path":[64500,64501,64502],` + check,
		`"path":[64500,64501,64501,64502],` + two,
		`"path":[64500,64500],` + two,
	} {
		in := ok + `{"prefix":"192.0.2.0/24",` + body + "}\n"
		var n int
		err := ReadJSONL(strings.NewReader(in), func(verify.RouteReport) { n++ })
		if err == nil || !strings.Contains(err.Error(), "line 2") || n != 1 {
			t.Errorf("%s: error %v after %d reports, want one naming line 2 after 1", body, err, n)
		}
	}
	// A bad reason kind fails text unmarshaling.
	badKind := `{"prefix":"192.0.2.0/24","path":[2,1],"checks":[{"from":1,"to":2,"dir":"import","status":"unrecorded","reasons":[{"kind":"NotAKind"}]}]}` + "\n"
	if err := ReadJSONL(strings.NewReader(badKind), func(verify.RouteReport) {}); err == nil {
		t.Error("bad reason kind not rejected")
	}
}
