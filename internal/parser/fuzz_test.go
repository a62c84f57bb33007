package parser

import (
	"reflect"
	"testing"

	"rpslyzer/internal/ir"
)

// FuzzSplitDump differentially fuzzes the streaming splitter: for any
// dump text and any chunk size, parsing the chunks must produce the
// exact IR of the whole text parsed as one chunk. The seeds are the shapes
// the splitter must not mangle: truncated objects, CRLF line endings,
// attribute continuation lines, and a final object missing its
// trailing blank line.
func FuzzSplitDump(f *testing.F) {
	seeds := []string{
		// Truncated objects: attribute cut mid-line, value-less key,
		// object reduced to a lone class line.
		"aut-num: AS1\nas-na",
		"aut-num: AS2\nas-name\n\nroute:",
		"as-set: AS-TRUNC\n",
		// CRLF line endings throughout, including a blank CRLF line.
		"aut-num: AS1\r\nas-name: ONE\r\n\r\naut-num: AS2\r\n",
		// Attribute continuation lines: leading space, tab, and '+'.
		"as-set: AS-C\nmembers: AS1,\n AS2,\n\tAS3,\n+AS4\n\naut-num: AS5\n",
		// Final object missing its trailing blank line.
		"aut-num: AS1\n\naut-num: AS2\nas-name: LAST",
		// Whitespace-only separator lines and stray continuations.
		"aut-num: AS1\n \t\r\naut-num: AS2\n",
		" dangling\n\naut-num: AS3\n",
		// Comments interleaved with objects.
		"% header\naut-num: AS1\n# comment\nas-name: X\n\n% trailer\n",
		"",
	}
	for _, s := range seeds {
		f.Add(s, 16)
	}
	f.Fuzz(func(t *testing.T, text string, chunkSize int) {
		if len(text) > 1<<16 {
			return
		}
		if chunkSize <= 0 || chunkSize > len(text)+1 {
			chunkSize = 16
		}
		want := ParseText(text, "T")
		got := parseChunked(t, text, chunkSize)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("chunked parse diverges from the one-chunk parse for %q (chunk size %d)", text, chunkSize)
		}
	})
}

// FuzzParseRule asserts the rule parser never panics and that accepted
// rules have a well-formed policy tree.
func FuzzParseRule(f *testing.F) {
	seeds := []string{
		"from AS4713 accept ANY",
		"to AS4713 announce AS-HANABI",
		"from AS8267:AS-KRAKOW-1014 action pref=50; accept PeerAS",
		"afi any.unicast from AS13911 accept ANY AND NOT {0.0.0.0/0, ::0/0} REFINE afi ipv4.unicast from AS13911 action pref=200; accept <^AS13911 AS6327+$>",
		"afi any { from AS-ANY action community.delete(64628:10); accept ANY; } REFINE afi any { from AS-ANY accept NOT AS199284^+; }",
		"protocol BGP4 into BGP4 from AS1 accept ANY",
		"from AS1 192.0.2.1 at 192.0.2.2 accept ANY",
		"from AS-ANY EXCEPT (AS40027 OR AS63293) accept ANY",
		"from AS1 accept {  }",
		"from AS1 accept <>",
		"from",
		"",
		"from AS1 action a=b; c .= { 1:2 }; community.append(3:4); accept ANY",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	var verifyTree func(t *testing.T, e *ir.PolicyExpr, depth int)
	verifyTree = func(t *testing.T, e *ir.PolicyExpr, depth int) {
		if e == nil {
			t.Fatal("nil policy node in accepted rule")
		}
		if depth > 200 {
			t.Fatal("policy tree too deep")
		}
		switch e.Kind {
		case ir.PolicyTerm:
			for i := range e.Factors {
				if len(e.Factors[i].Peerings) == 0 {
					t.Fatal("factor without peerings")
				}
				if e.Factors[i].Filter == nil {
					t.Fatal("factor without filter")
				}
			}
		case ir.PolicyExcept, ir.PolicyRefine:
			verifyTree(t, e.Left, depth+1)
			verifyTree(t, e.Right, depth+1)
		default:
			t.Fatalf("bad policy kind %v", e.Kind)
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, dir := range []ir.Direction{ir.DirImport, ir.DirExport} {
			rule, err := ParseRule(dir, false, input)
			if err != nil {
				continue
			}
			verifyTree(t, rule.Expr, 0)
		}
	})
}

// FuzzParsePathRegex asserts the regex parser never panics and that
// accepted regexes render without panicking.
func FuzzParsePathRegex(f *testing.F) {
	seeds := []string{
		"^AS13911 AS6327+$",
		"^PeerAS+$",
		"(AS1|AS2)* . AS-SET~{1,3}",
		"[^AS64512-AS65535]+",
		"AS1 - AS5",
		"((((AS1))))",
		"{2,}",
		"~",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		re, err := ParsePathRegex(input)
		if err != nil {
			return
		}
		_ = re.String()
	})
}

// FuzzParseFilter asserts the filter parser is total on arbitrary text.
func FuzzParseFilter(f *testing.F) {
	seeds := []string{
		"ANY",
		"AS-FOO AND NOT AS-BAR",
		"{10.0.0.0/8^+, 192.0.2.0/24} OR RS-X^24-28",
		"community(65535:666) AND <^AS1$>",
		"NOT NOT NOT ANY",
		"(((ANY)))",
		"}{",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		filter, err := ParseFilter(input)
		if err != nil {
			return
		}
		if filter == nil {
			t.Fatal("nil filter without error")
		}
		_ = filter.String()
	})
}
