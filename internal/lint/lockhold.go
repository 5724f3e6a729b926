package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// LockHold flags two mutex hazards that turn distributed stalls into
// whole-daemon stalls:
//
//  1. a sync.Mutex/RWMutex held across a blocking operation — an ACE
//     RPC (wire/pstore/pool call), a channel send or receive outside a
//     select with default, a select without default, time.Sleep, or a
//     Wait call — so one slow peer wedges every goroutine contending
//     for the lock;
//  2. a Lock() with no matching Unlock on some path: a return
//     statement between Lock and Unlock, or no Unlock anywhere in the
//     function (use defer).
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "mutex held across blocking I/O, or Unlock missing on a return path",
	Run:  runLockHold,
}

func runLockHold(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkLockFunc(pass, fd.Body)
		}
	}
}

// checkLockFunc scans every statement list in the function (blocks,
// case bodies) for Lock calls and follows each to its release.
func checkLockFunc(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		case *ast.FuncLit:
			checkLockFunc(pass, n.Body)
			return false
		default:
			return true
		}
		for i, stmt := range list {
			recv, kind, ok := lockCall(pass, stmt)
			if !ok {
				continue
			}
			followLock(pass, body, list[i+1:], stmt, recv, kind)
		}
		return true
	})
}

// lockCall matches `mu.Lock()` / `mu.RLock()` expression statements on
// a sync.Mutex or sync.RWMutex and returns the receiver's printed
// form ("d.mu") and the lock kind.
func lockCall(pass *Pass, stmt ast.Stmt) (recv, kind string, ok bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", "", false
	}
	return lockExpr(pass, es.X, "Lock", "RLock")
}

// unlockIn reports whether the statement is exactly the matching
// unlock for recv/kind.
func unlockStmt(pass *Pass, stmt ast.Stmt, recv, kind string) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	r, k, ok := lockExpr(pass, es.X, "Unlock", "RUnlock")
	return ok && r == recv && k == unlockFor(kind)
}

func unlockFor(kind string) string {
	if kind == "RLock" {
		return "RUnlock"
	}
	return "Unlock"
}

// lockExpr matches a call to one of the two method names on a
// sync.(RW)Mutex and returns the receiver expression's source form.
func lockExpr(pass *Pass, e ast.Expr, names ...string) (recv, name string, ok bool) {
	call, okc := ast.Unparen(e).(*ast.CallExpr)
	if !okc {
		return "", "", false
	}
	sel, oks := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !oks {
		return "", "", false
	}
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	if rt := recvNamed(fn); rt == nil || (rt.Obj().Name() != "Mutex" && rt.Obj().Name() != "RWMutex") {
		return "", "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return types.ExprString(ast.Unparen(sel.X)), n, true
		}
	}
	return "", "", false
}

// recvNamed returns the named receiver type of a method, with any
// pointer stripped.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// followLock walks the statements after a Lock until its release and
// reports blocking operations and unlock-free return paths in the
// locked region.
func followLock(pass *Pass, body *ast.BlockStmt, rest []ast.Stmt, lockStmt ast.Stmt, recv, kind string) {
	deferred := false
	released := false
	for i, stmt := range rest {
		if unlockStmt(pass, stmt, recv, kind) {
			released = true
			break
		}
		if ds, ok := stmt.(*ast.DeferStmt); ok && i == 0 {
			if r, k, ok := lockExpr(pass, ds.Call, "Unlock", "RUnlock"); ok && r == recv && k == unlockFor(kind) {
				deferred = true
				continue
			}
		}
		// Nested release (e.g. inside a conditional): the region ends
		// on some path; stop scanning rather than guess.
		if !deferred && containsUnlock(pass, stmt, recv, kind) {
			released = true
			break
		}
		for _, b := range blockingOps(pass, stmt) {
			pass.Reportf(b.pos.Pos(), "%s while %s is held by %s.%s()", b.desc, recv, recv, kind)
		}
		if !deferred {
			reportLockedReturns(pass, stmt, recv, kind)
		}
	}
	if !deferred && !released && !containsUnlock(pass, body, recv, kind) {
		pass.Reportf(lockStmt.Pos(), "%s.%s() has no matching %s in this function (use defer)",
			recv, kind, unlockFor(kind))
	}
}

// containsUnlock reports whether the subtree contains an Unlock (plain
// or deferred) matching recv/kind. Function literals are excluded: an
// unlock in a spawned goroutine is not a release on this path.
func containsUnlock(pass *Pass, n ast.Node, recv, kind string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if r, k, ok := lockExpr(pass, m, "Unlock", "RUnlock"); ok && r == recv && k == unlockFor(kind) {
				found = true
			}
		}
		return true
	})
	return found
}

// reportLockedReturns flags return statements inside the subtree that
// are not preceded by a matching unlock within their own subtree.
func reportLockedReturns(pass *Pass, stmt ast.Stmt, recv, kind string) {
	if containsUnlock(pass, stmt, recv, kind) {
		return // a path in here releases; too ambiguous to flag
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			pass.Reportf(n.Pos(), "return while %s is held by %s.%s() with no %s on this path",
				recv, recv, kind, unlockFor(kind))
		}
		return true
	})
}

type blockingOp struct {
	pos  ast.Node
	desc string
}

// blockingOps collects operations in the statement subtree that can
// block indefinitely. Function literal bodies are skipped: goroutines
// spawned under the lock do not run under it.
func blockingOps(pass *Pass, stmt ast.Stmt) []blockingOp {
	var out []blockingOp
	add := func(n ast.Node, desc string) {
		out = append(out, blockingOp{n, desc})
	}
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SelectStmt:
				hasDefault := false
				for _, cl := range m.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					add(m, "select without default")
				}
				// The comm clauses themselves are non-blocking when a
				// default exists; either way only descend into bodies.
				for _, cl := range m.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						for _, s := range cc.Body {
							walk(s)
						}
					}
				}
				return false
			case *ast.SendStmt:
				add(m, "channel send")
			case *ast.UnaryExpr:
				if m.Op.String() == "<-" {
					add(m, "channel receive")
				}
			case *ast.RangeStmt:
				if t := pass.TypeOf(m.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						add(m, "range over channel")
					}
				}
			case *ast.CallExpr:
				if desc := blockingCall(pass, m); desc != "" {
					add(m, desc)
				}
			}
			return true
		})
	}
	walk(stmt)
	return out
}

// blockingRPCNames are the ACE transport/store/pool entry points that
// perform network round trips, or, like Start, a write held to the
// call's deadline.
var blockingRPCNames = map[string]bool{
	"Call": true, "CallContext": true, "RoundTrip": true, "Start": true, "Retry": true,
	"Send": true, "SendContext": true,
	"Get": true, "GetContext": true, "GetAny": true, "GetBoundedContext": true,
	"Put": true, "PutContext": true, "PutVersionContext": true,
	"Delete": true, "DeleteContext": true,
	"List": true, "ListContext": true, "SendData": true,
	"SyncWith": true, "SyncAll": true,
}

// blockingPkgs are the module-local package basenames whose RPC-named
// methods block on the network.
var blockingPkgs = map[string]bool{"wire": true, "pstore": true, "daemon": true}

// blockingCall classifies a call as blocking: time.Sleep, any Wait
// method but sync.Cond's, or an RPC-named method on a
// wire/pstore/daemon type. (*sync.Cond).Wait is called with its lock
// held by contract and gives the lock up while it waits.
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if fn.Pkg().Path() == "time" && fn.Name() == "Sleep" {
		return "time.Sleep"
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	if fn.Name() == "Wait" {
		recv := pass.typeStr(sig.Recv().Type())
		if fn.Pkg().Path() == "sync" && recv == "*sync.Cond" {
			return ""
		}
		return fmt.Sprintf("(%s).Wait", recv)
	}
	if blockingRPCNames[fn.Name()] && pass.Prog.IsLocal(fn.Pkg().Path()) && blockingPkgs[fn.Pkg().Name()] {
		return fmt.Sprintf("blocking call to (%s).%s",
			pass.typeStr(sig.Recv().Type()), fn.Name())
	}
	return ""
}
