package irrgen

import (
	"strings"
	"testing"

	"rpslyzer/internal/ir"
	"rpslyzer/internal/parser"
	"rpslyzer/internal/render"
)

func evolveBaseIR(t *testing.T) *ir.IR {
	t.Helper()
	u := genSmall(t, 5)
	var dumps []parser.DumpText
	for _, name := range IRRs {
		dumps = append(dumps, parser.DumpText{Source: name, Text: u.DumpText(name)})
	}
	return parser.ParseTexts(dumps...)
}

func TestEvolveDeterministic(t *testing.T) {
	x := evolveBaseIR(t)
	cfg := EvolveConfig{Seed: 11}
	a := render.IR(Evolve(x, 2, cfg))
	b := render.IR(Evolve(x, 2, cfg))
	for reg, text := range a {
		if b[reg] != text {
			t.Fatalf("registry %s differs between identical Evolve runs", reg)
		}
	}
	c := render.IR(Evolve(x, 3, cfg))
	same := true
	for reg, text := range a {
		if c[reg] != text {
			same = false
		}
	}
	if same {
		t.Error("different steps should churn differently")
	}
}

func TestEvolveLeavesInputIntact(t *testing.T) {
	x := evolveBaseIR(t)
	before := render.IR(x)
	Evolve(x, 1, EvolveConfig{Seed: 11, PolicyChurnFrac: 0.2, SetChurnFrac: 0.2,
		RouteAddFrac: 0.1, RouteWithdrawFrac: 0.1})
	after := render.IR(x)
	for reg, text := range before {
		if after[reg] != text {
			t.Fatalf("Evolve mutated its input (registry %s)", reg)
		}
	}
}

func TestEvolveChurnsAtConfiguredRates(t *testing.T) {
	x := evolveBaseIR(t)
	cfg := EvolveConfig{Seed: 11, PolicyChurnFrac: 0.1, SetChurnFrac: 0.1,
		RouteAddFrac: 0.05, RouteWithdrawFrac: 0.05}
	next := Evolve(x, 1, cfg)

	changedPolicies := 0
	for asn, an := range next.AutNums {
		if an != x.AutNums[asn] {
			changedPolicies++
		}
	}
	if changedPolicies == 0 {
		t.Error("no aut-num policies churned at 10%")
	}
	if changedPolicies > len(x.AutNums)/3 {
		t.Errorf("%d/%d policies churned, far above the 10%% rate",
			changedPolicies, len(x.AutNums))
	}
	var minted int
	for _, r := range next.Routes {
		if strings.HasPrefix(r.Prefix.String(), "10.") {
			minted++
		}
	}
	if minted == 0 {
		t.Error("no routes minted at 5%")
	}
}

// TestEvolveRouteIdentitiesUnique guards the journal keying invariant:
// (prefix, origin, source) identifies a route object, so evolution
// must never mint a duplicate — not within a step and not across
// steps.
func TestEvolveRouteIdentitiesUnique(t *testing.T) {
	x := evolveBaseIR(t)
	cfg := EvolveConfig{Seed: 11, RouteAddFrac: 0.05}
	prev := x
	for step := 1; step <= 3; step++ {
		prev = Evolve(prev, step, cfg)
		type key struct {
			p      string
			origin ir.ASN
			src    string
		}
		seen := make(map[key]bool)
		for _, r := range prev.Routes {
			k := key{r.Prefix.String(), r.Origin, r.Source}
			if seen[k] {
				t.Fatalf("step %d: duplicate route identity %v", step, k)
			}
			seen[k] = true
		}
	}
}

// TestEvolveAppendsMintedRoutes guards the render-order invariant the
// equivalence property depends on: surviving routes keep their
// relative order and every minted route comes after all survivors.
func TestEvolveAppendsMintedRoutes(t *testing.T) {
	x := evolveBaseIR(t)
	old := make(map[*ir.RouteObject]int, len(x.Routes))
	for i, r := range x.Routes {
		old[r] = i
	}
	next := Evolve(x, 1, EvolveConfig{Seed: 11, RouteAddFrac: 0.05, RouteWithdrawFrac: 0.05})
	lastOld, sawMinted := -1, false
	for _, r := range next.Routes {
		if idx, ok := old[r]; ok {
			if sawMinted {
				t.Fatal("survivor route after a minted route")
			}
			if idx < lastOld {
				t.Fatal("survivor routes reordered")
			}
			lastOld = idx
		} else {
			sawMinted = true
		}
	}
	if !sawMinted {
		t.Error("no routes minted")
	}
}
