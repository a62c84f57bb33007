package rpsl

import (
	"strings"
	"testing"
)

const sampleDump = `
% This is a comment header like RIPE dumps carry.

aut-num:        AS38639
as-name:        HANABI
import:         from AS4713 accept ANY
export:         to AS4713 announce AS-HANABI
source:         APNIC

route:          8.8.8.0/24
origin:         AS15169
descr:          Google
source:         RADB

as-set:         AS-HANABI
members:        AS38639, AS4713,
                AS2497
source:         APNIC
`

func TestReaderSplitsObjects(t *testing.T) {
	objs, diags := ParseObjects(sampleDump, "TEST")
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %v", diags)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objects, want 3", len(objs))
	}
	if objs[0].Class != "aut-num" || objs[0].Name != "AS38639" {
		t.Errorf("first object = %s %s", objs[0].Class, objs[0].Name)
	}
	if objs[1].Class != "route" || objs[1].Name != "8.8.8.0/24" {
		t.Errorf("second object = %s %s", objs[1].Class, objs[1].Name)
	}
	if objs[2].Class != "as-set" {
		t.Errorf("third object class = %s", objs[2].Class)
	}
}

func TestReaderFoldsContinuations(t *testing.T) {
	objs, _ := ParseObjects(sampleDump, "TEST")
	members, ok := objs[2].Get("members")
	if !ok {
		t.Fatal("members attribute missing")
	}
	want := "AS38639, AS4713, AS2497"
	if members != want {
		t.Errorf("members = %q, want %q", members, want)
	}
}

func TestReaderPlusContinuation(t *testing.T) {
	text := "as-set: AS-X\nmembers: AS1,\n+ AS2\n+\n+ AS3\n"
	objs, _ := ParseObjects(text, "T")
	if len(objs) != 1 {
		t.Fatalf("got %d objects", len(objs))
	}
	m, _ := objs[0].Get("members")
	if m != "AS1, AS2 AS3" {
		t.Errorf("members = %q", m)
	}
}

func TestReaderStripsComments(t *testing.T) {
	text := "aut-num: AS1 # trailing comment\nimport: from AS2 accept ANY # why\n"
	objs, _ := ParseObjects(text, "T")
	if len(objs) != 1 {
		t.Fatalf("got %d objects", len(objs))
	}
	if objs[0].Name != "AS1" {
		t.Errorf("name = %q", objs[0].Name)
	}
	imp, _ := objs[0].Get("import")
	if imp != "from AS2 accept ANY" {
		t.Errorf("import = %q", imp)
	}
}

func TestReaderRecordsOutOfPlaceText(t *testing.T) {
	text := "aut-num: AS1\nthis is not an attribute at all\nimport: from AS2 accept ANY\n"
	objs, diags := ParseObjects(text, "T")
	if len(objs) != 1 {
		t.Fatalf("got %d objects", len(objs))
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if !strings.Contains(diags[0].Msg, "out-of-place") {
		t.Errorf("diag = %v", diags[0])
	}
	if !objs[0].Has("import") {
		t.Error("attribute after junk line was lost")
	}
}

func TestReaderContinuationWithoutAttribute(t *testing.T) {
	text := "   dangling continuation\naut-num: AS1\n"
	objs, diags := ParseObjects(text, "T")
	if len(objs) != 1 || len(diags) != 1 {
		t.Fatalf("objs=%d diags=%d", len(objs), len(diags))
	}
}

func TestReaderMultivaluedAttributes(t *testing.T) {
	text := "aut-num: AS1\nimport: from AS2 accept ANY\nimport: from AS3 accept ANY\nexport: to AS2 announce AS1\n"
	objs, _ := ParseObjects(text, "T")
	imports := objs[0].All("import")
	if len(imports) != 2 {
		t.Fatalf("got %d imports, want 2", len(imports))
	}
	if imports[1] != "from AS3 accept ANY" {
		t.Errorf("imports[1] = %q", imports[1])
	}
}

func TestReaderEOFWithoutBlankLine(t *testing.T) {
	text := "aut-num: AS99\nas-name: LAST"
	objs, _ := ParseObjects(text, "T")
	if len(objs) != 1 || objs[0].Name != "AS99" {
		t.Fatalf("objs = %v", objs)
	}
}

func TestReaderEmptyInput(t *testing.T) {
	objs, diags := ParseObjects("", "T")
	if len(objs) != 0 || len(diags) != 0 {
		t.Fatalf("objs=%d diags=%d", len(objs), len(diags))
	}
	objs, _ = ParseObjects("\n\n% only comments\n\n", "T")
	if len(objs) != 0 {
		t.Fatalf("objs=%d", len(objs))
	}
}

func TestReaderSourceAndLines(t *testing.T) {
	objs, _ := ParseObjects(sampleDump, "APNIC")
	if objs[0].Source != "APNIC" {
		t.Errorf("source = %q", objs[0].Source)
	}
	if objs[0].Line == 0 {
		t.Error("line not recorded")
	}
	if objs[0].Attrs[0].Line == 0 {
		t.Error("attribute line not recorded")
	}
}

func TestObjectString(t *testing.T) {
	objs, _ := ParseObjects("aut-num: AS1\nimport: from AS2 accept ANY\n", "T")
	s := objs[0].String()
	if !strings.Contains(s, "aut-num:") || !strings.Contains(s, "from AS2 accept ANY") {
		t.Errorf("String() = %q", s)
	}
	// Round trip: re-reading the rendered text yields the same attributes.
	objs2, _ := ParseObjects(s, "T")
	if len(objs2) != 1 || len(objs2[0].Attrs) != len(objs[0].Attrs) {
		t.Errorf("round trip failed: %v", objs2)
	}
}

func TestReaderHugeFoldedValue(t *testing.T) {
	var b strings.Builder
	b.WriteString("as-set: AS-HUGE\nmembers: AS1")
	for i := 2; i <= 5000; i++ {
		b.WriteString(",\n  AS")
		b.WriteString(strings.Repeat("9", 1)) // keep it simple: AS9 repeated is fine for folding
	}
	b.WriteString("\n")
	objs, _ := ParseObjects(b.String(), "T")
	if len(objs) != 1 {
		t.Fatalf("objs=%d", len(objs))
	}
	m, _ := objs[0].Get("members")
	if !strings.HasPrefix(m, "AS1,") {
		t.Errorf("members prefix = %q", m[:10])
	}
}

func TestGetMissing(t *testing.T) {
	objs, _ := ParseObjects("aut-num: AS1\n", "T")
	if _, ok := objs[0].Get("nonexistent"); ok {
		t.Error("Get on missing key returned ok")
	}
	if objs[0].All("nonexistent") != nil {
		t.Error("All on missing key returned non-nil")
	}
}
