package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// releasable lists the owned execution results: values whose storage
// Release hands back for a later execution to reuse.
var releasable = []struct{ pkg, name string }{
	{"cyclesql/internal/sqleval", "Result"},
	{"cyclesql/internal/provenance", "Provenance"},
}

// Released flags reads of an owned execution result after Release was
// called on it, within one function: the result itself, or a value read
// out of it before the release (its relation, its rows, a row) through
// local variables. After Release the storage belongs to a later
// execution, so such a read returns another query's rows; the runtime
// only poisons released storage in test binaries.
var Released = &Analyzer{
	Name: "released",
	Doc:  "forbid reading an owned sqleval.Result or provenance.Provenance, or rows taken from it, after its Release",
	Run:  runReleased,
}

func runReleased(pass *Pass) error {
	if !pathIn(pass.Pkg.Path(), "cyclesql") {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// One state per top-level function; closures share it, since
			// they capture the same variables.
			st := &releaseState{pass: pass, root: map[types.Object]types.Object{}, released: map[types.Object]token.Pos{}}
			st.walk(fn.Body)
		}
	}
	return nil
}

// releaseState follows one function body in source order. root maps each
// local that holds a releasable result, or a value read out of one, to
// the result's variable; released records the results released so far.
type releaseState struct {
	pass     *Pass
	root     map[types.Object]types.Object
	released map[types.Object]token.Pos
}

// walk visits body in source order. A release inside a block that ends
// in return, break, continue or goto does not reach the statements after
// the block, so the block's releases are forgotten when it ends. A
// deferred release runs at function exit and is not a release here.
func (st *releaseState) walk(body ast.Node) {
	var stack []ast.Node
	var saved []map[types.Object]token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top := top.(type) {
			case *ast.BlockStmt:
				if terminates(top) {
					st.released = saved[len(saved)-1]
					saved = saved[:len(saved)-1]
				}
			case *ast.CallExpr:
				if obj := st.releaseOf(top); obj != nil {
					st.released[obj] = top.Pos()
				}
			}
			return true
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				st.walk(rhs)
			}
			for _, lhs := range n.Lhs {
				if _, ok := ast.Unparen(lhs).(*ast.Ident); !ok {
					st.walk(lhs)
				}
			}
			st.bind(n)
			return false
		case *ast.ValueSpec:
			for _, v := range n.Values {
				st.walk(v)
			}
			for i, name := range n.Names {
				if obj := st.pass.TypesInfo.Defs[name]; obj != nil {
					st.rebind(obj, valueAt(n.Values, i, len(n.Names)))
				}
			}
			return false
		case *ast.BlockStmt:
			if terminates(n) {
				cp := make(map[types.Object]token.Pos, len(st.released))
				for k, v := range st.released {
					cp[k] = v
				}
				saved = append(saved, cp)
			}
		case *ast.Ident:
			st.checkRead(n)
		}
		stack = append(stack, n)
		return true
	})
}

// valueAt returns the i-th of n assigned values when every name has its
// own, nil for a tuple assignment from one call.
func valueAt(values []ast.Expr, i, n int) ast.Expr {
	if len(values) == n {
		return values[i]
	}
	return nil
}

// bind rebinds the identifiers an assignment writes.
func (st *releaseState) bind(n *ast.AssignStmt) {
	for i, lhs := range n.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := st.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = st.pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			st.rebind(obj, valueAt(n.Rhs, i, len(n.Lhs)))
		}
	}
}

// rebind records what obj holds after being assigned v (nil: a value of
// unknown origin): a fresh releasable result is its own root, a value
// read out of a tracked one shares that one's root, and anything else is
// untracked. Either way obj no longer holds what an earlier release
// released.
func (st *releaseState) rebind(obj types.Object, v ast.Expr) {
	delete(st.root, obj)
	delete(st.released, obj)
	if v != nil {
		if id := baseIdent(v); id != nil {
			if r, ok := st.root[st.pass.TypesInfo.Uses[id]]; ok {
				st.root[obj] = r
				return
			}
		}
	}
	if isReleasable(obj.Type()) {
		st.root[obj] = obj
	}
}

// checkRead reports id when it reads a released result or a value read
// out of one.
func (st *releaseState) checkRead(id *ast.Ident) {
	obj := st.pass.TypesInfo.Uses[id]
	if obj == nil {
		return
	}
	r, ok := st.root[obj]
	if !ok {
		return
	}
	if _, gone := st.released[r]; gone {
		st.pass.Reportf(id.Pos(), "%s read after %s.Release(): the released storage belongs to a later execution", id.Name, r.Name())
	}
}

// releaseOf returns the result variable a call releases, for a Release
// call on a local holding a releasable result, else nil.
func (st *releaseState) releaseOf(call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" || len(call.Args) != 0 {
		return nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := st.pass.TypesInfo.Uses[id]
	if obj == nil || !isReleasable(obj.Type()) {
		return nil
	}
	return obj
}

// baseIdent is the variable an expression reads through selectors,
// indexing, slicing and dereferences: res for res.Rel.Rows[0].
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isReleasable(t types.Type) bool {
	for _, r := range releasable {
		if isNamed(t, r.pkg, r.name) {
			return true
		}
	}
	return false
}

// terminates reports whether a block's last statement leaves it for good.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch s := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}
