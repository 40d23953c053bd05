// Package ctxflow enforces the context discipline of the library API:
// every operation has exactly one, ctx-taking entry point, and library
// code never mints its own background context — only main packages and
// tests may do that. A reintroduced convenience wrapper
// (`func X(...) { return XContext(context.Background(), ...) }`) in an
// internal package is therefore a finding, which keeps the API at one
// function per operation.
package ctxflow

import (
	"go/ast"
	"strings"

	"leakbound/internal/analysis"
)

// Analyzer flags background contexts minted inside library packages.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background/TODO in internal library code, including non-ctx wrappers around ...Context functions",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !strings.Contains(pass.Pkg.Path(), "internal/") || pass.Pkg.Name() == "main" {
		return nil, nil
	}
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if analysis.IsPkgFunc(fn, "context", "Background") || analysis.IsPkgFunc(fn, "context", "TODO") {
				pass.Reportf(call.Pos(), "context.%s in library package: accept a ctx from the caller", fn.Name())
			}
			return true
		})
	}
	return nil, nil
}
