package lint

import (
	"go/ast"
	"go/types"
)

// CtxPropagation flags calls that drop an in-scope context: inside a
// function that receives a context.Context or a *daemon.Ctx, calling
// the plain variant of an ACE API that also has a *Context variant
// (wire.Client.Call vs CallContext, pstore.Client.Get vs GetContext,
// daemon.Pool.Send vs SendContext, ...) silently discards the trace
// span and the caller's deadline. The check is structural: any method
// M on a module-local type is flagged when an MContext method taking
// a leading context.Context exists on the same receiver.
var CtxPropagation = &Analyzer{
	Name: "ctxpropagation",
	Doc:  "plain RPC call drops an in-scope context; use the *Context variant",
	Run:  runCtxPropagation,
}

func runCtxPropagation(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxBody(pass, fd.Body, ctxInScope(pass, fd.Type))
		}
	}
}

// ctxInScope returns the expression a handler should pass downstream
// ("ctx" for a context.Context parameter, "ctx.TraceContext()" for a
// *daemon.Ctx), or "" when the function receives no context.
func ctxInScope(pass *Pass, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue
			}
			if isContextType(t) {
				return name.Name
			}
			if isDaemonCtx(pass, t) {
				return name.Name + ".TraceContext()"
			}
		}
	}
	return ""
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isDaemonCtx reports whether t is *daemon.Ctx (recognized by name
// plus a TraceContext() context.Context method, so the golden-test
// stand-in packages qualify too).
func isDaemonCtx(pass *Pass, t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := ptr.Elem().(*types.Named)
	if !ok || n.Obj().Name() != "Ctx" || n.Obj().Pkg() == nil || !pass.Prog.IsLocal(n.Obj().Pkg().Path()) {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(t, true, n.Obj().Pkg(), "TraceContext")
	fn, ok := m.(*types.Func)
	if !ok {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Results().Len() == 1 && isContextType(sig.Results().At(0).Type())
}

// checkCtxBody walks a function body. Function literals carry their
// own parameter list but still close over the enclosing context, so
// the in-scope expression is inherited unless the literal introduces
// its own context parameter.
func checkCtxBody(pass *Pass, body ast.Node, ctxExpr string) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			inner := ctxInScope(pass, n.Type)
			if inner == "" {
				inner = ctxExpr
			}
			checkCtxBody(pass, n.Body, inner)
			return false
		case *ast.CallExpr:
			if ctxExpr != "" {
				checkCtxCall(pass, n, ctxExpr)
			}
		}
		return true
	})
}

func checkCtxCall(pass *Pass, call *ast.CallExpr, ctxExpr string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !pass.Prog.IsLocal(fn.Pkg().Path()) {
		return
	}
	selection, ok := pass.Pkg.Info.Selections[sel]
	if !ok { // package-qualified function, not a method call
		return
	}
	variant := contextVariant(selection.Recv(), fn)
	if variant == "" {
		return
	}
	recv := pass.typeStr(selection.Recv())
	pass.Reportf(call.Pos(), "(%s).%s drops the in-scope context; use %s(%s, ...)",
		recv, fn.Name(), variant, ctxExpr)
}

// contextVariant returns the name of the <method>Context sibling on
// recv when one exists with a leading context.Context parameter, or
// "" when the called method has no context-aware variant (or is one).
func contextVariant(recv types.Type, fn *types.Func) string {
	name := fn.Name()
	if len(name) > 7 && name[len(name)-7:] == "Context" {
		return ""
	}
	obj, _, _ := types.LookupFieldOrMethod(recv, true, fn.Pkg(), name+"Context")
	vfn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := vfn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || !isContextType(sig.Params().At(0).Type()) {
		return ""
	}
	return vfn.Name()
}
