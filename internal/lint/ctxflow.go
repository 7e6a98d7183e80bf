package lint

import (
	"go/ast"
	"go/types"
)

// ctxflowScope is the set of hot-path packages (including their
// subpackages) in which inventing a context is banned: the execution
// stack threads real contexts end to end (PR 4), so a context.TODO() or
// context.Background() here means a call site dodged the plumbing. The
// remaining nil-ctx guard (Executor.exec, behind Run and ExecContext)
// carries a //vetcycle:allow directive.
var ctxflowScope = []string{
	"cyclesql/internal/core",
	"cyclesql/internal/sqleval",
	"cyclesql/internal/serve",
	"cyclesql/internal/resilience",
}

// CtxFlow enforces context threading in the hot-path packages:
//
//  1. context.TODO() is always a finding — it marks a call site that
//     dodged the plumbing (this subsumes the retired grep-based CI ban).
//  2. context.Background() is a finding unless the line carries a
//     //vetcycle:allow ctxflow directive naming it a deliberate one-shot
//     wrapper or nil-ctx guard.
//  3. A function that has a context.Context parameter in scope must not
//     call the background wrapper of a context-aware API: calling Exec
//     when ExecContext exists (or Verify/VerifyContext, Track/TrackContext,
//     ... — any in-module sibling pair following the *Context naming
//     convention) silently drops the caller's cancellation.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "forbid invented contexts and dropped-ctx wrapper calls in hot-path packages",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	if !pathIn(pass.Pkg.Path(), ctxflowScope...) {
		return nil
	}
	for _, f := range pass.Files {
		ctxflowWalk(pass, f, false)
	}
	return nil
}

// ctxflowWalk visits n with ctxInScope tracking whether an enclosing
// function (or closure chain) has a context.Context parameter.
func ctxflowWalk(pass *Pass, n ast.Node, ctxInScope bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			inner := ctxInScope || funcCtxParam(pass.TypesInfo, n.Type) != ""
			if n.Body != nil {
				ctxflowWalk(pass, n.Body, inner)
			}
			return false
		case *ast.FuncLit:
			inner := ctxInScope || funcCtxParam(pass.TypesInfo, n.Type) != ""
			ctxflowWalk(pass, n.Body, inner)
			return false
		case *ast.CallExpr:
			checkCtxCall(pass, n, ctxInScope)
		}
		return true
	})
}

func checkCtxCall(pass *Pass, call *ast.CallExpr, ctxInScope bool) {
	fn := calleeOf(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "context" {
		switch fn.Name() {
		case "TODO":
			pass.Reportf(call.Pos(), "context.TODO() in %s: thread the caller's context instead", pass.Pkg.Path())
		case "Background":
			pass.Reportf(call.Pos(), "context.Background() in %s: thread the caller's context, or mark a deliberate one-shot wrapper with //vetcycle:allow ctxflow -- <why>", pass.Pkg.Path())
		}
		return
	}
	// Rule 3: dropping an in-scope ctx for the background wrapper. Only
	// in-module sibling pairs count — the Foo/FooContext convention is a
	// project contract, not one we can assume of third-party APIs.
	if !ctxInScope || !pathIn(fn.Pkg().Path(), "cyclesql") {
		return
	}
	for _, arg := range call.Args {
		if tv, ok := pass.TypesInfo.Types[arg]; ok && isContextType(tv.Type) {
			return // already passes a context
		}
	}
	if sib := ctxSibling(fn); sib != "" {
		pass.Reportf(call.Pos(), "%s drops the in-scope ctx: call %s so cancellation reaches the work", fn.Name(), sib)
	}
}

// ctxSibling returns the name of fn's context-aware variant (fn's name +
// "Context", as a method on the same receiver type or a function in the
// same package), or "" when none exists or fn itself takes a context.
func ctxSibling(fn *types.Func) string {
	want := fn.Name() + "Context"
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedType(recv.Type()); named != nil {
			if iface, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					if iface.Method(i).Name() == want {
						return named.Obj().Name() + "." + want
					}
				}
			}
			for i := 0; i < named.NumMethods(); i++ {
				if named.Method(i).Name() == want {
					return named.Obj().Name() + "." + want
				}
			}
		}
		// The convention may instead pair the method with a package-level
		// helper (e.g. nli.VerifyContext(ctx, v, ...) for Verifier.Verify).
		if obj, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok {
			return fn.Pkg().Name() + "." + obj.Name()
		}
		return ""
	}
	if obj, ok := fn.Pkg().Scope().Lookup(want).(*types.Func); ok {
		return fn.Pkg().Name() + "." + obj.Name()
	}
	return ""
}
