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

// TestSingleCallSites pins the calls that make up "dumps → served
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
		{"rpslyzer/internal/reportstore", "Swap", true},
		{"rpslyzer/internal/verify", "Reverify", true},
		{"rpslyzer/internal/verify", "NewIncremental", false},
		{"rpslyzer/internal/nrtm", "Poll", false},
	}
	sites := make([][]string, len(pins))
	fset := token.NewFileSet()
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
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pin := range pins {
		if len(sites[i]) != 1 {
			t.Errorf("%s.%s has %d call sites outside bench/, tests and its own package, want 1: %v",
				pin.pkg, pin.name, len(sites[i]), sites[i])
		}
	}
}
