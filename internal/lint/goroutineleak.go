package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// GoroutineLeak verifies that every goroutine spawned outside a
// flow-bounded path has a reachable shutdown edge. A daemon that
// starts background loops with no stop signal cannot drain on Close/
// Stop: the goroutine pins its captured state forever and, under churn
// (reconnects, rebalances), the leak compounds into memory exhaustion.
//
// The analysis runs on the call graph: for each `go` statement it
// resolves the spawned function (literal, named function, or method),
// collects everything reachable from it along static and closure
// edges, and demands that every infinite loop in that set can exit:
//
//   - a `return` or `break` somewhere in the loop (the loop ends when
//     its blocking source fails — the accept/read-loop idiom);
//   - a receive, select case, or range over ctx.Done() or over a
//     channel that some function in the program closes (`close(ch)`
//     in a Stop/Close is the shutdown edge);
//   - a WaitGroup the spawned body Done()s and the program Wait()s —
//     the goroutine is joined, so its exit is someone's business.
//
// Spawns are exempt when the spawning function consults the flow
// admission package (those goroutines are bounded and request-scoped),
// when they sit in test files, or when the spawned body has no
// infinite loop at all (it terminates structurally). Spawns through
// function values are unresolvable and skipped — the conservative
// direction for a leak check is silence, not a guess.
var GoroutineLeak = &Analyzer{
	Name:       "goroutineleak",
	Doc:        "goroutine with an infinite loop and no reachable shutdown edge",
	RunProgram: runGoroutineLeak,
}

// closedChanFact marks a channel object (by canonical key) as closed
// somewhere in the program.
const closedChanFact = "chan.closed"

func runGoroutineLeak(pp *ProgPass) {
	closed, waited := collectChannelFacts(pp)

	for _, sp := range pp.Graph.Spawns {
		if sp.Test || sp.Root == nil {
			continue
		}
		if sp.Pkg != nil && isFlowPackage(sp.Pkg.Types) {
			continue // the limiter's own internals manage their workers
		}
		// Flow-gated spawn: the spawner (or the spawned body itself)
		// calls into the admission package.
		if bodyCallsFlow(pp, sp.From) || bodyCallsFlow(pp, sp.Root) {
			continue
		}
		reach := pp.Graph.ReachableSync(sp.Root, true)
		if spawnJoined(pp, reach, waited) {
			continue
		}
		var leaky *Node
		var nodes []*Node
		for n := range reach {
			nodes = append(nodes, n)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key < nodes[j].Key })
		for _, n := range nodes {
			if n.Body == nil || n.Pkg == nil {
				continue
			}
			if nodeHasLeakyLoop(pp, n, closed) {
				leaky = n
				break
			}
		}
		if leaky == nil {
			continue
		}
		what := sp.Root.Name
		if leaky != sp.Root {
			what = sp.Root.Name + " (via " + leaky.Name + ")"
		}
		pp.Reportf(sp.Site.Pos(),
			"goroutine %s loops forever with no reachable shutdown edge; add a ctx.Done()/closed-channel case, exit on error, or join it with a WaitGroup",
			what)
	}
}

// collectChannelFacts scans the whole program once for close(ch) sites
// and WaitGroup Wait() sites, keyed by the canonical object key of the
// channel / WaitGroup variable. Close sites are exported to the fact
// store so other analyzers (and the driver test) can consume them.
func collectChannelFacts(pp *ProgPass) (closed, waited map[string]bool) {
	closed = make(map[string]bool)
	waited = make(map[string]bool)
	for _, pkg := range pp.Prog.Packages {
		pass := pp.PackagePass(pkg)
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
					if _, isBuiltin := pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
						if obj := referencedObject(pass, call.Args[0]); obj != nil {
							closed[ObjectKey(pp.Fset, obj)] = true
							pp.Facts.Export(obj, closedChanFact, true)
						}
					}
				}
				if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
					if obj := referencedObject(pass, sel.X); obj != nil && isWaitGroup(obj.Type()) {
						waited[ObjectKey(pp.Fset, obj)] = true
					}
				}
				return true
			})
		}
	}
	return closed, waited
}

// referencedObject resolves a variable or field reference (x, s.f,
// (*p).f) to its declaring object so uses in different functions and
// type-check units compare equal through ObjectKey.
func referencedObject(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.Pkg.Info.Uses[e]; obj != nil {
			return obj
		}
		return pass.Pkg.Info.Defs[e]
	case *ast.SelectorExpr:
		if sel, ok := pass.Pkg.Info.Selections[e]; ok {
			return sel.Obj()
		}
		return pass.Pkg.Info.Uses[e.Sel]
	case *ast.StarExpr:
		return referencedObject(pass, e.X)
	}
	return nil
}

func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}

// bodyCallsFlow reports whether the node's body calls into a flow
// admission package.
func bodyCallsFlow(pp *ProgPass, n *Node) bool {
	if n == nil || n.Body == nil || n.Pkg == nil {
		return false
	}
	return callsFlowPackage(pp.PackagePass(n.Pkg), n.Body)
}

// spawnJoined reports whether any reachable body Done()s a WaitGroup
// that the program Wait()s on: the goroutine is joined, so a missing
// internal exit signal is the joiner's bug to see, not a silent leak.
func spawnJoined(pp *ProgPass, reach map[*Node]bool, waited map[string]bool) bool {
	for n := range reach {
		if n.Body == nil || n.Pkg == nil {
			continue
		}
		pass := pp.PackagePass(n.Pkg)
		joined := false
		skip := ownLiterals(n)
		ast.Inspect(n.Body, func(node ast.Node) bool {
			if joined {
				return false
			}
			if lit, ok := node.(*ast.FuncLit); ok && skip[lit] {
				return false
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			obj := referencedObject(pass, sel.X)
			if obj != nil && isWaitGroup(obj.Type()) && waited[ObjectKey(pp.Fset, obj)] {
				joined = true
			}
			return !joined
		})
		if joined {
			return true
		}
	}
	return false
}

// nodeHasLeakyLoop reports whether the node's own body contains an
// infinite loop with no exit: no return/break, no receive on
// ctx.Done() or a program-closed channel, no process exit.
func nodeHasLeakyLoop(pp *ProgPass, n *Node, closed map[string]bool) bool {
	pass := pp.PackagePass(n.Pkg)
	leaky := false
	skip := ownLiterals(n)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if leaky {
			return false
		}
		if lit, ok := node.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		var body *ast.BlockStmt
		switch s := node.(type) {
		case *ast.ForStmt:
			if s.Cond != nil {
				return true // a condition is an exit by construction
			}
			body = s.Body
		case *ast.RangeStmt:
			// Ranging over a channel blocks until the channel closes;
			// unbounded unless some function closes it.
			t := pass.TypeOf(s.X)
			if t == nil {
				return true
			}
			if _, isChan := t.Underlying().(*types.Chan); !isChan {
				return true
			}
			if obj := referencedObject(pass, s.X); obj != nil && closed[ObjectKey(pp.Fset, obj)] {
				return true
			}
			body = s.Body
		default:
			return true
		}
		if !loopHasExit(pass, body, closed, pp) {
			leaky = true
		}
		return !leaky
	})
	return leaky
}

// loopHasExit scans one infinite-loop body (excluding nested function
// literals) for any way out.
func loopHasExit(pass *Pass, body *ast.BlockStmt, closed map[string]bool, pp *ProgPass) bool {
	exits := false
	ast.Inspect(body, func(node ast.Node) bool {
		if exits {
			return false
		}
		switch s := node.(type) {
		case *ast.FuncLit:
			return false // separate node; its exits don't end this loop
		case *ast.ReturnStmt:
			exits = true
		case *ast.BranchStmt:
			if s.Tok.String() == "break" || s.Tok.String() == "goto" {
				exits = true
			}
		case *ast.UnaryExpr:
			if s.Op.String() == "<-" && recvIsShutdown(pass, s.X, closed, pp) {
				exits = true
			}
		case *ast.RangeStmt:
			if recvIsShutdown(pass, s.X, closed, pp) {
				exits = true
			}
		case *ast.CallExpr:
			if fn := pass.calleeFunc(s); fn != nil && fn.Pkg() != nil {
				full := fn.Pkg().Path() + "." + fn.Name()
				switch full {
				case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
					exits = true
				}
			}
		}
		return !exits
	})
	return exits
}

// recvIsShutdown reports whether receiving from e constitutes a
// shutdown edge: e is ctx.Done() for a context, or a channel some
// function in the program closes.
func recvIsShutdown(pass *Pass, e ast.Expr, closed map[string]bool, pp *ProgPass) bool {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			if t := pass.TypeOf(sel.X); t != nil && (isContextType(t) || isDaemonCtx(pass, t)) {
				return true
			}
		}
		return false
	}
	if obj := referencedObject(pass, e); obj != nil && closed[ObjectKey(pp.Fset, obj)] {
		return true
	}
	return false
}

// callsFlowPackage reports whether any call in body resolves into a
// flow package — the marker that the function's spawns are
// admission-gated.
func callsFlowPackage(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := pass.calleeFunc(call); fn != nil && isFlowPackage(fn.Pkg()) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isFlowPackage matches the real ace/internal/flow package and the
// golden tests' stand-in "flow" modules.
func isFlowPackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "ace/internal/flow" || strings.HasSuffix(path, "/flow") || path == "flow"
}
