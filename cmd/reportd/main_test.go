package main

import "testing"

func TestImportExcludesMirror(t *testing.T) {
	if _, err := parseFlags([]string{"-import", "reports.jsonl", "-mirror", "journals"}); err == nil {
		t.Fatal("-import with -mirror was accepted")
	}
	for _, args := range [][]string{{"-import", "reports.jsonl"}, {"-mirror", "journals"}} {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("%v: %v", args, err)
		}
	}
}
