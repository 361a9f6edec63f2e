package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportGuard keeps the benchmark off the code the roadmap plans to
// merge or delete (the internal core behind the facade, the per-Inst
// machine entry points, the step-by-step network models), so those
// refactors land without editing the benchmark: core and gang timings go
// through the repro facade instead.
func TestImportGuard(t *testing.T) {
	bannedImports := map[string]bool{"repro/internal/core": true}
	bannedSelectors := map[string]map[string]bool{
		"repro/internal/machine": {"Exec": true, "Blocked": true},
		"repro/internal/network": {"Broadcast": true, "NewBroadcast": true, "ReduceTree": true, "NewReduceTree": true},
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Local package name -> import path.
		local := map[string]string{}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if bannedImports[path] {
				t.Errorf("%s imports %s", fset.Position(imp.Pos()), path)
			}
			id := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				id = imp.Name.Name
			}
			local[id] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && bannedSelectors[local[pkg.Name]][sel.Sel.Name] {
				t.Errorf("%s uses %s.%s", fset.Position(sel.Pos()), local[pkg.Name], sel.Sel.Name)
			}
			return true
		})
	}
}
