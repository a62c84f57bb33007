package rpslyzer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSingleCallSites pins the calls that make up "dumps → IR → served
// snapshot" and "journal → swapped snapshot" to one production call
// site each, so a second wiring of that path is a red build. bench/
// (the benchmark's replica), test files and the defining package are
// outside the count. Receivers are not type-checked: a method is any
// call of that name in a file importing the defining package.
func TestSingleCallSites(t *testing.T) {
	pins := []struct {
		pkg, name string
		method    bool
	}{
		{"rpslyzer/internal/reportstore", "BuildSnapshot", false},
		{"rpslyzer/internal/reportstore", "Swap", true},
		{"rpslyzer/internal/verify", "Reverify", true},
		{"rpslyzer/internal/verify", "NewIncremental", false},
		{"rpslyzer/internal/nrtm", "Poll", false},
		// Every IR from dumps comes out of the one chunk pool (and
		// parser.Merge): a second loader beside core.ParseDumps is red.
		{"rpslyzer/internal/parser", "ParseChunks", false},
	}
	sites := make([][]string, len(pins))
	fset := token.NewFileSet()
	eachProductionFile(t, fset, func(file string, f *ast.File) {
		imported := map[string]string{} // import path → name in this file
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			imported[p] = path.Base(p)
			if imp.Name != nil {
				imported[p] = imp.Name.Name
			}
		}
		for i, pin := range pins {
			local, ok := imported[pin.pkg]
			if !ok || "rpslyzer/"+filepath.ToSlash(filepath.Dir(file)) == pin.pkg {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != pin.name {
					return true
				}
				if x, isIdent := sel.X.(*ast.Ident); pin.method || (isIdent && x.Name == local) {
					sites[i] = append(sites[i], fset.Position(call.Pos()).String())
				}
				return true
			})
		}
	})
	for i, pin := range pins {
		if len(sites[i]) != 1 {
			t.Errorf("%s.%s has %d call sites outside bench/, tests and its own package, want 1: %v",
				pin.pkg, pin.name, len(sites[i]), sites[i])
		}
	}
}

// TestPolicyTreeWalksLiveInIR keeps the walks over the policy tree in
// internal/ir (AutNum.Rules, PolicyExpr.AllFactors, Filter.Walk,
// ASExpr.Walk, PathRegex.WalkNodes and WalkTerms): no other production
// file may select a child field of the tree, so a second hand-rolled
// walker is a red build. The exceptions are the packages that build or
// compile the trees, and the verifier's compiler, which recurses
// carrying state. Receivers are not type-checked: any selector of these
// names counts.
func TestPolicyTreeWalksLiveInIR(t *testing.T) {
	children := map[string]bool{"Left": true, "Right": true, "Children": true, "Elems": true}
	allowed := func(file string) bool {
		file = filepath.ToSlash(file)
		return strings.HasPrefix(file, "internal/ir/") || strings.HasPrefix(file, "internal/asregex/") ||
			file == "internal/verify/compile.go"
	}
	fset := token.NewFileSet()
	eachProductionFile(t, fset, func(file string, f *ast.File) {
		if allowed(file) {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && children[sel.Sel.Name] {
				t.Errorf("%s: selects .%s; walk the policy tree through internal/ir's traversals",
					fset.Position(sel.Sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	})
}

// eachProductionFile parses every non-test Go file of the module
// outside bench/ (the benchmark's replica) and hidden directories and
// hands it to visit with its path relative to the module root.
func eachProductionFile(t *testing.T, fset *token.FileSet, visit func(file string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file == "bench" || (file != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		visit(file, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestOneDatabaseOwner keeps the current IRR database in one place:
// nrtm.Mirror's pointer, which whois queries and the engine's steps
// read. No production file outside internal/nrtm may declare an
// atomic.Pointer[irr.Database] or a SetDB method, so a second copy of
// the current database, kept in step by a hook, is a red build.
func TestOneDatabaseOwner(t *testing.T) {
	isSel := func(e ast.Expr, pkg, name string) bool {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == pkg && sel.Sel.Name == name
	}
	fset := token.NewFileSet()
	eachProductionFile(t, fset, func(file string, f *ast.File) {
		if strings.HasPrefix(filepath.ToSlash(file), "internal/nrtm/") {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IndexExpr:
				if isSel(n.X, "atomic", "Pointer") && isSel(n.Index, "irr", "Database") {
					t.Errorf("%s: declares an atomic.Pointer[irr.Database]; read nrtm.Mirror.DB instead",
						fset.Position(n.Pos()))
				}
			case *ast.FuncDecl:
				if n.Recv != nil && n.Name.Name == "SetDB" {
					t.Errorf("%s: declares a SetDB method; read nrtm.Mirror.DB instead",
						fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}

// TestNoUnsafe keeps the program memory-safe: no production file may
// import unsafe. What a check's reasons hold is carried with the check
// (verify.Check.Kinds), not recovered by hashing a list's address.
func TestNoUnsafe(t *testing.T) {
	fset := token.NewFileSet()
	eachProductionFile(t, fset, func(file string, f *ast.File) {
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "unsafe" {
				t.Errorf("%s: imports unsafe", fset.Position(imp.Pos()))
			}
		}
	})
}

// TestOneAggregationKernel keeps the counting of route reports in
// report.Aggregator, whose partials the store's freeze merges: no
// production file outside internal/report may name report.PairKey or
// build a report.ASStats literal, so a second per-AS or per-pair tally
// beside the aggregator is a red build.
func TestOneAggregationKernel(t *testing.T) {
	const pkg = "rpslyzer/internal/report"
	fset := token.NewFileSet()
	eachProductionFile(t, fset, func(file string, f *ast.File) {
		if strings.HasPrefix(filepath.ToSlash(file), "internal/report/") {
			return
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == pkg {
				local = path.Base(p)
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		isReport := func(e ast.Expr, name string) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == local && sel.Sel.Name == name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if isReport(n, "PairKey") {
					t.Errorf("%s: names report.PairKey; count pairs through report.Aggregator", fset.Position(n.Pos()))
				}
			case *ast.CompositeLit:
				if isReport(n.Type, "ASStats") {
					t.Errorf("%s: builds a report.ASStats; count ASes through report.Aggregator", fset.Position(n.Pos()))
				}
			}
			return true
		})
	})
}
