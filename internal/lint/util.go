package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// pathIn reports whether importPath is pkg or lives under pkg/.
func pathIn(importPath string, pkgs ...string) bool {
	for _, p := range pkgs {
		if importPath == p || strings.HasPrefix(importPath, p+"/") {
			return true
		}
	}
	return false
}

// calleeOf resolves the function or method object a call expression
// invokes, or nil for calls through function values, conversions and
// builtins.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// namedType unwraps pointers and aliases down to the *types.Named beneath
// t, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// isNamed reports whether t (possibly behind pointers) is the named type
// pkgPath.name.
func isNamed(t types.Type, pkgPath, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Pkg().Path() == pkgPath && n.Obj().Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

// funcCtxParam returns the name of ft's first context.Context parameter,
// or "" when the function takes none.
func funcCtxParam(info *types.Info, ft *ast.FuncType) string {
	if ft == nil || ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		tv, ok := info.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		if len(field.Names) > 0 {
			return field.Names[0].Name
		}
		return "_"
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isMutexType(t types.Type) bool {
	return isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex")
}

// recvString renders the receiver expression of a selector call for use
// as a lock identity key ("db.mu", "t.pmu"). Index expressions and calls
// render opaquely, which merely widens lock identity — acceptable for a
// linter that checks acquisition order, not aliasing.
func exprKey(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[...]"
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	case *ast.StarExpr:
		return exprKey(e.X)
	default:
		return "?"
	}
}
