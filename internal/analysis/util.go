package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// errorType is the universe's error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// IsErrorType reports whether t implements the error interface.
func IsErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType)
}

// CalleeFunc resolves the statically-known function or method a call
// invokes, or nil for calls through function values, conversions, and
// builtins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fn.Sel] // package-qualified call
		}
	}
	f, _ := obj.(*types.Func)
	return f
}

// IsPkgFunc reports whether fn is the named function of the named package
// (matched by import-path suffix, so fixture packages under testdata can
// stand in for real ones).
func IsPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && PathHasSuffix(fn.Pkg().Path(), pkgPath)
}

// PathHasSuffix reports whether an import path equals suffix or ends with
// "/"+suffix — e.g. both "internal/telemetry" and
// "example.com/internal/telemetry" match the suffix "internal/telemetry".
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// ContainsReturn reports whether the statement contains a return or a
// branching statement (break/continue/goto) anywhere outside nested
// function literals — the test the locks analyzer uses for "does control
// possibly leave this span".
func ContainsReturn(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt, *ast.BranchStmt:
			found = true
		}
		return !found
	})
	return found
}
