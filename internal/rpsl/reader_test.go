package rpsl

import (
	"bufio"
	"reflect"
	"strconv"
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

// refParse is the line loop Reader had before it parsed in place: a
// bufio.Scanner, one string per line, attributes grown by append. It
// is kept as the reference the in-place reader is compared against.
func refParse(text, source string) ([]*Object, []Diagnostic) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), MaxLine)
	var (
		objs    []*Object
		diags   []Diagnostic
		obj     *Object
		curKey  string
		curVal  []string
		curLine int
		lineNo  int
	)
	stripComment := func(line string) string {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			return line[:i]
		}
		return line
	}
	addDiag := func(line int, msg string) {
		diags = append(diags, Diagnostic{Source: source, Line: line, Msg: msg})
	}
	quote := func(line string) string {
		if len(line) > 40 {
			line = line[:40] + "..."
		}
		return strconv.Quote(line)
	}
	flushAttr := func() {
		if obj != nil && curKey != "" {
			val := strings.TrimSpace(strings.Join(curVal, " "))
			obj.Attrs = append(obj.Attrs, Attribute{Key: curKey, Value: val, Line: curLine})
		}
		curKey, curVal = "", nil
	}
	finish := func() {
		flushAttr()
		obj.Class = obj.Attrs[0].Key
		obj.Name = strings.ToUpper(strings.Join(strings.Fields(obj.Attrs[0].Value), " "))
		objs = append(objs, obj)
		obj = nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if strings.TrimSpace(line) == "" {
			if obj != nil {
				finish()
			}
			continue
		}
		if line[0] == '%' || line[0] == '#' {
			continue
		}
		if line[0] == ' ' || line[0] == '\t' || line[0] == '+' {
			cont := line
			if cont[0] == '+' {
				cont = cont[1:]
			}
			cont = strings.TrimSpace(stripComment(cont))
			if curKey == "" {
				addDiag(lineNo, "continuation line with no preceding attribute: "+quote(line))
				continue
			}
			if cont != "" {
				curVal = append(curVal, cont)
			}
			continue
		}
		colon := strings.IndexByte(line, ':')
		if colon <= 0 || !validKey(line[:colon]) {
			addDiag(lineNo, "out-of-place text skipped: "+quote(line))
			continue
		}
		flushAttr()
		curKey = strings.ToLower(strings.TrimSpace(line[:colon]))
		curLine = lineNo
		if v := strings.TrimSpace(stripComment(line[colon+1:])); v != "" {
			curVal = append(curVal, v)
		}
		if obj == nil {
			obj = &Object{Source: source, Line: lineNo}
		}
	}
	if obj != nil {
		finish()
	}
	return objs, diags
}

// readerSeeds are the shapes the in-place line loop must read exactly
// as the scanner-based one did.
var readerSeeds = []string{
	sampleDump,
	"aut-num: AS1\r\nas-name: ONE\r\n\r\naut-num: AS2\r\n",                       // CRLF
	"aut-num: AS1\n\naut-num: AS2\nas-name: LAST",                                // no trailing newline
	"as-set: AS-C\nmembers: AS1,\n AS2,\n\tAS3,\n+AS4\n+\n+ AS5\n",               // '+', space and tab continuations
	"as-set: AS-D\nmembers: AS1, # first\n AS2 # second\n# not a member\n AS3\n", // comments inside a folded value
	"a:\x00b\n\x00\n\nroute: 1.2.3.0/24\x00\norigin: AS1\n",                      // NUL bytes
	"aut-num: AS1\ras-name: X\n\r\naut-num: AS2\n\r",                             // a lone \r
	"Aut-Num : AS1\nIMPORT:from AS2 accept ANY\nbad key: x\n:novalue\n",
	" dangling\n+ too\n\n\xc2\x85\naut-num: AS3\n\v\naut-num: AS4\n",
	"key-only:\n\nanother: x\n",
	"",
}

func checkAgainstReference(t *testing.T, text string) {
	t.Helper()
	wantObjs, wantDiags := refParse(text, "REF")
	gotObjs, gotDiags := ParseObjects(text, "REF")
	if !reflect.DeepEqual(gotObjs, wantObjs) {
		t.Fatalf("objects differ for %q:\n got %+v\nwant %+v", text, gotObjs, wantObjs)
	}
	if !reflect.DeepEqual(gotDiags, wantDiags) {
		t.Fatalf("diagnostics differ for %q:\n got %v\nwant %v", text, gotDiags, wantDiags)
	}
}

func TestReaderMatchesReference(t *testing.T) {
	for _, text := range readerSeeds {
		checkAgainstReference(t, text)
	}
}

// TestReaderDoesNotAliasText asserts nothing in an Object points into
// the text it was read from: the text may be overwritten afterwards.
func TestReaderDoesNotAliasText(t *testing.T) {
	text := []byte(sampleDump)
	want, _ := refParse(sampleDump, "T")
	got := NewTextReader(text, "T", 1).ReadAll()
	for i := range text {
		text[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("objects changed with the text they were read from: %+v", got)
	}
}

// TestOverlongLineCostsOneObject puts a line of MaxLine+1 bytes in the
// second of three objects: that object is dropped with one diagnostic
// naming the line, and the reader carries on at the next blank line.
func TestOverlongLineCostsOneObject(t *testing.T) {
	text := "aut-num: AS1\n\nas-set: AS-BIG\nmembers: " + strings.Repeat("A", MaxLine-8) +
		"\nmnt-by: M\n\naut-num: AS2\n"
	r := NewTextReader([]byte(text), "T", 1)
	objs := r.ReadAll()
	if len(objs) != 2 || objs[0].Name != "AS1" || objs[1].Name != "AS2" {
		t.Fatalf("objects = %+v, want AS1 and AS2", objs)
	}
	diags := r.Diagnostics()
	if len(diags) != 1 || diags[0].Line != 4 || !strings.Contains(diags[0].Msg, "line 4 is longer than 16 MiB") {
		t.Fatalf("diagnostics = %v, want one naming line 4", diags)
	}
	// One byte less and it is an ordinary, if enormous, attribute.
	text = strings.Replace(text, "members: A", "members: ", 1)
	if objs, diags := ParseObjects(text, "T"); len(objs) != 3 || len(diags) != 0 {
		t.Fatalf("at MaxLine: %d objects and diagnostics %v, want 3 and none", len(objs), diags)
	}
}

// TestNextReusesItsObject asserts the object Next returns is the
// reader's: a second Next overwrites it and its Attrs in place, while
// the objects ReadAll and ParseObjects return are copies, none sharing
// the reader's object or Attrs.
func TestNextReusesItsObject(t *testing.T) {
	want, _ := ParseObjects(sampleDump, "TEST")
	r := NewTextReader([]byte(sampleDump), "TEST", 1)
	first := r.Next()
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatalf("first Next = %+v, want %+v", first, want[0])
	}
	attrs := first.Attrs
	second := r.Next()
	if second != first {
		t.Fatal("second Next returned a new object, want the reader's one")
	}
	if first.Class != "route" || first.Name != "8.8.8.0/24" || !reflect.DeepEqual(first, want[1]) {
		t.Fatalf("after the second Next the first object is %+v, want the second object", first)
	}
	if &attrs[0] != &second.Attrs[0] || attrs[0] != want[1].Attrs[0] {
		t.Fatalf("second Next did not overwrite the first object's Attrs in place")
	}

	r = NewTextReader([]byte(sampleDump), "TEST", 1)
	all := r.ReadAll()
	if len(all) != len(want) {
		t.Fatalf("ReadAll = %d objects, want %d", len(all), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(all[i], want[i]) {
			t.Fatalf("ReadAll object %d = %+v, want %+v", i, all[i], want[i])
		}
		for j := range i {
			if all[j] == all[i] || &all[j].Attrs[0] == &all[i].Attrs[0] || want[j] == want[i] || &want[j].Attrs[0] == &want[i].Attrs[0] {
				t.Fatalf("objects %d and %d share storage", j, i)
			}
		}
	}
}
