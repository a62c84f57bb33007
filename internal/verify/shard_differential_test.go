// Differential test for the bulk drivers: VerifyAll must produce the
// same reports as the memo-free single-route path over the full
// synthetic corpus. Partition counts are the differential oracle's C3
// and C4 (internal/oracle).
package verify_test

import (
	"testing"

	"rpslyzer/internal/verify"
)

// TestVerifyRouteMatchesVerifyAll is the memo-free oracle: every bulk
// run serves repeated (prefix, communities, path-suffix) pairs from the
// pair memo, so comparing bulk runs with each other cannot show the
// memo unsound. VerifyRoute evaluates every check of every route.
func TestVerifyRouteMatchesVerifyAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus differential test")
	}
	sys, routes := diffCorpus(t)
	v := verify.New(sys.DB, sys.Rels, verify.Config{})
	want := make([]string, len(routes))
	for i := range routes {
		want[i] = renderReport(v.VerifyRoute(routes[i]))
	}
	for _, n := range []int{1, 4} {
		got := verify.New(sys.DB, sys.Rels, verify.Config{}).VerifyAll(routes, n)
		mismatches := 0
		for i := range got {
			if g := renderReport(got[i]); g != want[i] {
				mismatches++
				if mismatches <= 5 {
					t.Errorf("route %s path %v:\nVerifyAll(%d):\n%s\nVerifyRoute:\n%s",
						routes[i].Prefix, routes[i].Path, n, g, want[i])
				}
			}
		}
		if mismatches > 0 {
			t.Fatalf("%d/%d reports differ between VerifyAll(routes, %d) and VerifyRoute", mismatches, len(got), n)
		}
	}
}
