// Package detflow guards the property the paper's oracle argument rests
// on: every run of Figure 7/8/Table 2 yields bit-identical energies, so
// measured energies can be compared against the provable lower bound
// (Equations 1–3 and the appendix optimality proof). Map iteration
// order, wall-clock reads, and random sources are the ways Go code
// silently loses that property.
//
// One source scanner finds those hazards: time.Now/time.Since calls, any
// use of math/rand or math/rand/v2, a map handed to fmt's print family,
// and, inside a map range, an append to an outer slice with no later
// sort, floating-point accumulation into an outer variable (float
// addition is not associative), and fmt prints or Write* calls. The
// analyzer applies the scanner two ways:
//
//   - Depth 0. In a result-producing package every source site is a
//     finding, wherever it sits in a file: function bodies, signatures,
//     and package-level declarations alike.
//   - Through calls. Everywhere else the scanner yields a per-function
//     taint fact, computed bottom-up over the call graph; a finding is
//     reported at a sink's call site into the tainted subgraph, with the
//     chain down to the originating source — a time.Now two helpers deep
//     corrupts RESULTS.txt just as a direct one does. Sinks are every
//     function in a result-producing package plus any function named
//     Digest; a Digest outside the result packages also has its own
//     sources reported directly. A source site covered by a
//     //lint:ignore detflow directive is reviewed and does not taint, so
//     a suppression keeps its force transitively.
//
// Soundness caveats, documented rather than papered over: taint does not
// propagate through interface or function-value calls (no points-to
// analysis), and internal/telemetry is a barrier — it reads clocks by
// design, but only observational state flows out of it, never result
// values.
package detflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"leakbound/internal/analysis"
	"leakbound/internal/analysis/callgraph"
	"leakbound/internal/analysis/summary"
)

var Analyzer = &analysis.Analyzer{
	Name:       "detflow",
	Doc:        "flag clocks, randomness, and map-order dependence in result-producing code, directly or through call chains",
	RunProgram: run,
}

// resultPackages matches the packages whose outputs are the paper's
// numbers; everything else (servers, CLIs, telemetry plumbing) may
// legitimately read clocks unless it feeds them.
var resultPackages = regexp.MustCompile(`(^|/)internal/(leakage|interval|experiments|report|stats)$`)

// telemetryBarrier matches the observability layer: clock reads inside it
// are its purpose, and nothing it computes feeds results.
const telemetryBarrier = "internal/telemetry"

// fact is one function's taint summary: whether nondeterminism is
// statically reachable from it, what kind, and one witness route.
type fact struct {
	tainted bool
	what    string      // "time.Now", "math/rand", "map iteration order", ...
	chain   []token.Pos // call sites from this function down to the source site, then the site itself
	route   []string    // node names from this function down to the source holder
}

func run(pass *analysis.ProgramPass) error {
	report := func(pos token.Pos, _, msg string) { pass.Reportf(pos, nil, "%s", msg) }
	for _, pkg := range pass.Packages {
		if !resultPackages.MatchString(pkg.PkgPath) {
			continue
		}
		for _, f := range pkg.Syntax {
			scan(pkg.TypesInfo, f, false, report)
		}
	}

	g := callgraph.Build(pass.Packages)
	facts := summary.Compute(g,
		func(n *callgraph.Node) fact {
			if inTelemetry(n) {
				return fact{}
			}
			return directFact(pass, n)
		},
		func(caller *callgraph.Node, f fact, call callgraph.Call, calleeFact fact) (fact, bool) {
			if f.tainted || !calleeFact.tainted || inTelemetry(call.Callee) {
				return f, false
			}
			return fact{
				tainted: true,
				what:    calleeFact.what,
				chain:   append([]token.Pos{call.Site}, calleeFact.chain...),
				route:   append([]string{caller.String()}, calleeFact.route...),
			}, true
		},
	)

	for _, n := range g.Nodes {
		if !isSink(n) {
			continue
		}
		if !resultPackages.MatchString(n.Pkg.PkgPath) {
			scan(n.Pkg.TypesInfo, n.Body(), true, report)
		}
		for _, c := range n.Calls {
			if c.Callee == nil || !facts[c.Callee].tainted {
				continue
			}
			// A tainted callee that is itself a sink carries its own finding
			// — report at the deepest sink boundary only.
			if isSink(c.Callee) {
				continue
			}
			cf := facts[c.Callee]
			pass.Reportf(c.Site, cf.chain, "call chain reaches %s (via %s): nondeterminism must not flow into results",
				cf.what, strings.Join(cf.route, " → "))
		}
	}
	return nil
}

// directFact is the first unreviewed source site in a node's own body.
func directFact(pass *analysis.ProgramPass, n *callgraph.Node) fact {
	var f fact
	scan(n.Pkg.TypesInfo, n.Body(), true, func(pos token.Pos, what, _ string) {
		if f.tainted || pass.Directives.Covers("detflow", pass.Fset.Position(pos)) {
			return
		}
		f = fact{tainted: true, what: what, chain: []token.Pos{pos}, route: []string{n.String()}}
	})
	return f
}

// scan calls emit for every nondeterminism source under root, with a
// short name for call-chain messages and a depth-0 message. The
// collect-then-sort fix is looked for within root, so root is a whole
// file at depth 0 and a function body for a taint fact. With own set,
// nested function literals are skipped: the call graph gives each its
// own node.
func scan(info *types.Info, root ast.Node, own bool, emit func(pos token.Pos, what, msg string)) {
	ast.Inspect(root, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return !own
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, x)
			if analysis.IsPkgFunc(fn, "time", "Now") || analysis.IsPkgFunc(fn, "time", "Since") {
				what := "time." + fn.Name()
				emit(x.Pos(), what, what+" in result-producing code: wall clock must not influence results")
			} else if isFmtPrint(fn) {
				for _, arg := range x.Args {
					if isMap(info.TypeOf(arg)) {
						emit(arg.Pos(), "a map printed by fmt", fmt.Sprintf("map passed to fmt.%s: emit results in explicitly sorted order", fn.Name()))
					}
				}
			}
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if pn, ok := info.Uses[id].(*types.PkgName); ok {
					switch pn.Imported().Path() {
					case "math/rand", "math/rand/v2":
						emit(x.Pos(), "math/rand", "math/rand in result-producing code: randomness must not influence results")
					}
				}
			}
		case *ast.RangeStmt:
			if isMap(info.TypeOf(x.X)) {
				scanMapRange(info, root, x, emit)
			}
		}
		return true
	})
}

// scanMapRange emits the order-sensitive work inside one map range. A
// nested map range is left to its own visit, whose notion of "outer" is
// the stricter one.
func scanMapRange(info *types.Info, root ast.Node, rs *ast.RangeStmt, emit func(pos token.Pos, what, msg string)) {
	const what = "map iteration order"
	ast.Inspect(rs.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.RangeStmt:
			return !isMap(info.TypeOf(x.X))
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				obj := assignedObject(info, lhs)
				if obj == nil || within(obj.Pos(), rs) {
					continue
				}
				switch x.Tok {
				case token.ADD_ASSIGN, token.SUB_ASSIGN:
					if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						emit(x.Pos(), what, fmt.Sprintf("floating-point accumulation into %s in map iteration order: float addition is not associative", obj.Name()))
					}
				case token.ASSIGN, token.DEFINE:
					if i < len(x.Rhs) && isAppend(info, x.Rhs[i]) && !sortedAfter(info, root, rs, obj) {
						emit(x.Pos(), what, fmt.Sprintf("append to %s in map iteration order without a later sort", obj.Name()))
					}
				}
			}
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(info, x)
			if isFmtPrint(fn) {
				emit(x.Pos(), what, fmt.Sprintf("fmt.%s inside a map range: output depends on map iteration order", fn.Name()))
			} else if fn != nil && fn.Type().(*types.Signature).Recv() != nil && isWriteName(fn.Name()) {
				emit(x.Pos(), what, fmt.Sprintf("%s call inside a map range: output depends on map iteration order", fn.Name()))
			}
		}
		return true
	})
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isFmtPrint(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") || strings.HasPrefix(name, "Sprint")
}

func isWriteName(name string) bool {
	return name == "Write" || name == "WriteString" || name == "WriteByte" || name == "WriteRune"
}

// isAppend matches a call to the append builtin.
func isAppend(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// assignedObject resolves the variable an assignment target refers to.
func assignedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

func within(pos token.Pos, n ast.Node) bool {
	return pos >= n.Pos() && pos <= n.End()
}

// sortedAfter reports whether a sort.* or slices.Sort* call mentioning
// obj appears after the range within root — the canonical
// collect-then-sort fix.
func sortedAfter(info *types.Info, root ast.Node, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		fn := analysis.CalleeFunc(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort": // every exported entry point sorts
		case "slices":
			if !strings.HasPrefix(fn.Name(), "Sort") {
				return true
			}
		default:
			return true
		}
		ast.Inspect(call, func(y ast.Node) bool {
			if id, ok := y.(*ast.Ident); ok && info.Uses[id] == obj {
				found = true
			}
			return !found
		})
		return true
	})
	return found
}

func inTelemetry(n *callgraph.Node) bool {
	return n != nil && analysis.PathHasSuffix(n.Pkg.PkgPath, telemetryBarrier)
}

// isSink reports whether the node's findings would feed the paper's
// numbers: any function in a result-producing package, or a Digest
// implementation anywhere.
func isSink(n *callgraph.Node) bool {
	if resultPackages.MatchString(n.Pkg.PkgPath) {
		return true
	}
	return n.Fn != nil && n.Fn.Name() == "Digest"
}
