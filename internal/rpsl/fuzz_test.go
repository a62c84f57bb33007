package rpsl

import (
	"strings"
	"testing"
)

// FuzzReader asserts the lexical layer's robustness invariants on
// arbitrary input: it never panics, every produced object has a class
// and at least one attribute, and total consumption is bounded.
func FuzzReader(f *testing.F) {
	seeds := []string{
		sampleDump,
		"",
		"aut-num: AS1\n",
		"aut-num: AS1\nimport: from AS2\n  accept ANY\n",
		"+ dangling\n% comment\n# comment\n",
		"key-only:\n\nanother: x\n",
		"a:\x00b\n",
		strings.Repeat("x", 100) + ":v\n",
		"route: 1.2.3.0/24\norigin: AS1\n\nroute: ::/0\norigin: AS2\n",
		"as-set: AS-X\nmembers: " + strings.Repeat("AS1, ", 50) + "\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		objs, _ := ParseObjects(input, "FUZZ")
		for _, o := range objs {
			if o.Class == "" {
				t.Fatalf("object without class: %+v", o)
			}
			if len(o.Attrs) == 0 {
				t.Fatalf("object without attributes: %+v", o)
			}
			// Rendering and re-reading must be stable (no panic, same
			// attribute count modulo empty-valued attributes).
			rendered := o.String()
			objs2, _ := ParseObjects(rendered, "FUZZ2")
			if len(objs2) > 1 {
				t.Fatalf("render split one object into %d", len(objs2))
			}
		}
	})
}

// FuzzReaderMatchesReference differentially fuzzes the in-place line
// loop against the scanner-based one it replaced: over arbitrary bytes
// NewTextReader must produce the reference's objects, attribute lines
// and diagnostics.
func FuzzReaderMatchesReference(f *testing.F) {
	for _, s := range readerSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkAgainstReference(t, input)
	})
}
