// Package telemetryscope enforces the telemetry registry's contract:
// metric and scope names are compile-time constants obeying the
// lowercase segment convention (so snapshot keys are a closed, stable,
// deterministic set — no unbounded cardinality from interpolated names),
// and metric lookups are hoisted out of loops onto constructor/init
// paths, the way every existing scope (sweep, cpu, server) does it.
package telemetryscope

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"

	"leakbound/internal/analysis"
)

// Analyzer flags non-constant or ill-formed metric names and metric
// lookups inside loops.
var Analyzer = &analysis.Analyzer{
	Name: "telemetryscope",
	Doc:  "flag telemetry metric registrations with non-constant or non-conventional names, and metric lookups inside loops",
	Run:  run,
}

// nameRx is the scope.name convention: lowercase [a-z0-9_] segments
// joined by '/' or '.'.
var nameRx = regexp.MustCompile(`^[a-z0-9_]+([/.][a-z0-9_]+)*$`)

// accessorNames are the registering accessors of telemetry.Scope and
// telemetry.Registry.
var accessorNames = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "Scope": true}

func run(pass *analysis.Pass) (interface{}, error) {
	if analysis.PathHasSuffix(pass.Pkg.Path(), "internal/telemetry") {
		return nil, nil // the registry implementation itself is exempt
	}
	for _, file := range pass.Files {
		loops := loopSpans(file)
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn := analysis.CalleeFunc(pass.TypesInfo, call)
			if !isAccessor(fn) {
				return true
			}
			checkName(pass, fn, call.Args[0])
			if fn.Name() != "Scope" && loops.contains(call.Pos()) {
				pass.Reportf(call.Pos(), "%s lookup inside a loop: hoist to a constructor/init path and cache the pointer", fn.Name())
			}
			return true
		})
	}
	return nil, nil
}

// isAccessor reports whether fn is a metric accessor method of the
// telemetry package's Scope or Registry.
func isAccessor(fn *types.Func) bool {
	if fn == nil || !accessorNames[fn.Name()] || fn.Pkg() == nil {
		return false
	}
	if !analysis.PathHasSuffix(fn.Pkg().Path(), "internal/telemetry") {
		return false
	}
	return fn.Type().(*types.Signature).Recv() != nil
}

// checkName verifies the metric/scope name argument is a constant string
// obeying the naming convention.
func checkName(pass *analysis.Pass, fn *types.Func, arg ast.Expr) {
	tv, ok := pass.TypesInfo.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		pass.Reportf(arg.Pos(), "%s name must be a compile-time constant: interpolated names create unbounded metric cardinality and nondeterministic snapshots", fn.Name())
		return
	}
	if name := constant.StringVal(tv.Value); !nameRx.MatchString(name) {
		pass.Reportf(arg.Pos(), "%s name %q violates the naming convention (lowercase [a-z0-9_] segments joined by '/' or '.')", fn.Name(), name)
	}
}

// spanList is a set of position intervals.
type spanList []span

type span struct{ body *ast.BlockStmt }

func (s spanList) contains(pos token.Pos) bool {
	for _, sp := range s {
		if pos >= sp.body.Pos() && pos <= sp.body.End() {
			return true
		}
	}
	return false
}

// loopSpans collects the body spans of every for and range statement.
func loopSpans(file *ast.File) spanList {
	var spans spanList
	ast.Inspect(file, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			spans = append(spans, span{n.Body})
		case *ast.RangeStmt:
			spans = append(spans, span{n.Body})
		}
		return true
	})
	return spans
}
