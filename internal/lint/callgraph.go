package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file is the interprocedural half of acelint: a package-set-wide
// call graph built over the typed ASTs after type checking. Nodes are
// functions, methods, and function literals; edges carry the calling
// mode (static, closure, conservative interface dispatch, or `go`
// spawn). The graph is deliberately conservative where Go's dynamism
// defeats static resolution: interface calls fan out to every
// same-name/same-arity concrete method in the module, and calls
// through function values add no edge rather than guessing a target.
//
// Because the driver type-checks each directory more than once (merged
// test unit + pure import variant), the same source function exists as
// several distinct *types.Func values. Nodes are therefore keyed by
// funcKey (the qualified name) so every incarnation lands on one node,
// and non-function objects are canonicalized by declaration position
// (see ObjectKey in facts.go).

// EdgeKind classifies one call edge.
type EdgeKind int

const (
	// EdgeStatic is a direct call of a named function or method.
	EdgeStatic EdgeKind = iota
	// EdgeClosure links a function to a literal declared in its body:
	// the literal may run synchronously (immediate call, callback) so
	// synchronous analyses follow it conservatively.
	EdgeClosure
	// EdgeInterface is a conservative interface-dispatch edge to a
	// concrete method matched by name and arity.
	EdgeInterface
	// EdgeGo is a `go` statement: the callee runs asynchronously and
	// never blocks the caller.
	EdgeGo
)

// Sync reports whether the edge transfers control synchronously — the
// caller waits for the callee (or may, for closures and interface
// dispatch). Go spawns are the only asynchronous kind.
func (k EdgeKind) Sync() bool { return k != EdgeGo }

// Edge is one call site in the graph.
type Edge struct {
	From *Node
	To   *Node
	Pos  token.Pos
	Kind EdgeKind
}

// Node is one function in the graph. Named functions and methods carry
// Func (and, when the body lives in the analyzed module, Body/Pkg);
// function literals carry Body/Pkg only. External functions (standard
// library, interface methods) are nodes too — with Func set but no
// body — so analyzers can treat e.g. net.Conn.Read as an intrinsic
// sink.
type Node struct {
	Key  string
	Name string // human-readable ("(*wire.Client).Call", "func literal at …")

	Func *types.Func
	Body *ast.BlockStmt
	Pkg  *Package // unit providing the body; nil for externals

	Out []Edge
	In  []Edge
}

// External reports whether the node has no body in the analyzed
// module (standard library function, interface method, or a function
// whose body failed to type-check).
func (n *Node) External() bool { return n.Body == nil }

// HandlerReg is one daemon verb registration discovered during the
// graph walk: Handle(CommandSpec{...}, handler) or the daemon shell's
// internal bind(name, handler) form.
type HandlerReg struct {
	Verb    string
	Handler *Node // nil when the handler expression is dynamic
	Pos     token.Pos
	Test    bool // registration sits in a _test.go file
}

// SpecSite is one CommandSpec composite literal with a constant-folded
// name, whether or not it sits inside a Handle call (Declare/DeclareAll
// chains and spec tables count too).
type SpecSite struct {
	Verb string
	Lit  *ast.CompositeLit
	Pos  token.Pos
	Pkg  *Package
	Test bool
}

// Graph is the package-set-wide call graph plus the protocol-level
// registration index the ACE analyzers share.
type Graph struct {
	Nodes    map[string]*Node
	Handlers []*HandlerReg
	Specs    []*SpecSite
}

// NodeFor resolves a function object (from any type-check unit) to its
// graph node, or nil when the function never appears in the program.
func (g *Graph) NodeFor(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.Nodes[funcKey(fn)]
}

// SortedNodes returns the nodes ordered by key for deterministic
// iteration.
func (g *Graph) SortedNodes() []*Node {
	out := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ifaceCall is a pending interface-dispatch site resolved after every
// concrete method has a node.
type ifaceCall struct {
	from    *Node
	pos     token.Pos
	name    string
	nargs   int
	methods []string // every method name of the interface, for containment
}

type graphBuilder struct {
	prog  *Program
	graph *Graph
	iface []ifaceCall

	// pendingHandlers defers handler-argument resolution until every
	// literal has a node (the registration call is visited before its
	// argument literal).
	pendingHandlers []pendingHandler
	litNodes        map[*ast.FuncLit]*Node
}

type pendingHandler struct {
	verb    string
	handler ast.Expr
	pos     token.Pos
	pkg     *Package
	test    bool
}

// BuildGraph constructs the call graph for the loaded program. The
// result is cached on the Program; analyzers reach it through
// ProgPass.Graph.
func BuildGraph(prog *Program) *Graph {
	b := &graphBuilder{
		prog:     prog,
		graph:    &Graph{Nodes: make(map[string]*Node)},
		litNodes: make(map[*ast.FuncLit]*Node),
	}
	for _, pkg := range prog.Packages {
		pass := &Pass{Prog: prog, Pkg: pkg, Fset: prog.Fset}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue // type error left the decl unresolved
				}
				node := b.ensureFunc(fn)
				if node.Body == nil {
					node.Body, node.Pkg = fd.Body, pkg
				}
				b.walkBody(pass, node, fd.Body)
			}
		}
	}
	b.resolveInterfaces()
	b.resolveHandlers()
	sort.Slice(b.graph.Handlers, func(i, j int) bool { return b.graph.Handlers[i].Pos < b.graph.Handlers[j].Pos })
	sort.Slice(b.graph.Specs, func(i, j int) bool { return b.graph.Specs[i].Pos < b.graph.Specs[j].Pos })
	return b.graph
}

func (b *graphBuilder) ensureFunc(fn *types.Func) *Node {
	key := funcKey(fn)
	if n, ok := b.graph.Nodes[key]; ok {
		return n
	}
	n := &Node{Key: key, Func: fn.Origin(), Name: shortFuncName(fn)}
	b.graph.Nodes[key] = n
	return n
}

func (b *graphBuilder) ensureLit(lit *ast.FuncLit, pkg *Package, enclosing *Node) *Node {
	if n, ok := b.litNodes[lit]; ok {
		return n
	}
	pos := b.prog.Fset.Position(lit.Pos())
	key := fmt.Sprintf("lit:%s:%d:%d", pos.Filename, pos.Line, pos.Column)
	n, ok := b.graph.Nodes[key]
	if !ok {
		n = &Node{
			Key:  key,
			Name: fmt.Sprintf("func literal in %s", enclosing.Name),
			Body: lit.Body, Pkg: pkg,
		}
		b.graph.Nodes[key] = n
	}
	b.litNodes[lit] = n
	return n
}

func (b *graphBuilder) addEdge(from, to *Node, pos token.Pos, kind EdgeKind) {
	e := Edge{From: from, To: to, Pos: pos, Kind: kind}
	from.Out = append(from.Out, e)
	to.In = append(to.In, e)
}

// shortFuncName renders a function with bare package names for
// readable findings: "(*wire.Client).Call", "daemon.New".
func shortFuncName(fn *types.Func) string {
	full := fn.Origin().FullName()
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := strings.LastIndex(path, "/"); i >= 0 {
			full = strings.ReplaceAll(full, path, path[i+1:])
		}
	}
	return full
}

// walkBody records edges and protocol registrations for one
// function body. Function literals become their own nodes, linked to
// the enclosing function by a closure edge (or a go edge when the
// literal is spawned directly).
func (b *graphBuilder) walkBody(pass *Pass, node *Node, body *ast.BlockStmt) {
	goCalls := make(map[*ast.CallExpr]bool)
	spawnedLits := make(map[*ast.FuncLit]*ast.GoStmt)

	// current tracks the innermost function node while descending into
	// literals; ast.Inspect is pre-order so a stack works.
	var walk func(n ast.Node, current *Node)
	walk = func(root ast.Node, current *Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				lit := b.ensureLit(n, pass.Pkg, current)
				if g, spawned := spawnedLits[n]; spawned {
					b.addEdge(current, lit, g.Pos(), EdgeGo)
				} else {
					b.addEdge(current, lit, n.Pos(), EdgeClosure)
				}
				walk(n.Body, lit)
				return false
			case *ast.GoStmt:
				call := n.Call
				goCalls[call] = true
				if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
					spawnedLits[lit] = n
					return true // literal case above adds the go edge
				}
				if fn := pass.calleeFunc(call); fn != nil {
					b.addEdge(current, b.ensureFunc(fn), n.Pos(), EdgeGo)
				}
				return true
			case *ast.CallExpr:
				if !goCalls[n] {
					b.recordCall(pass, current, n)
				}
				b.recordRegistration(pass, n)
				return true
			case *ast.CompositeLit:
				b.recordSpec(pass, n)
				return true
			}
			return true
		})
	}
	walk(body, node)
}

// recordCall adds the edge for one ordinary (non-go) call expression.
func (b *graphBuilder) recordCall(pass *Pass, current *Node, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	case *ast.FuncLit:
		return // immediate invocation; the closure edge covers it
	default:
		return // call through a function value: no resolvable target
	}
	// Builtins, conversions, unresolved names and calls through function
	// variables add no edge.
	obj, ok := pass.Pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	b.addEdge(current, b.ensureFunc(obj), call.Pos(), EdgeStatic)
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !types.IsInterface(sig.Recv().Type()) {
		return
	}
	ic := ifaceCall{from: current, pos: call.Pos(), name: obj.Name(), nargs: sig.Params().Len()}
	// Constrain candidates by the receiver expression's static type, not
	// the method's declared receiver: a call through hash.Hash64 declares
	// Write on the embedded io.Writer, and the full interface is what
	// narrows the implementor set.
	recvT := sig.Recv().Type()
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if t := pass.TypeOf(sel.X); t != nil && types.IsInterface(t) {
			recvT = t
		}
	}
	if iface, ok := recvT.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			ic.methods = append(ic.methods, iface.Method(i).Name())
		}
	}
	b.iface = append(b.iface, ic)
}

// recordRegistration captures Handle(CommandSpec{...}, h) and
// bind(name, h) verb registrations for later resolution.
func (b *graphBuilder) recordRegistration(pass *Pass, call *ast.CallExpr) {
	if isHandleCall(pass, call) {
		lit, ok := ast.Unparen(call.Args[0]).(*ast.CompositeLit)
		if !ok {
			return // spec built elsewhere; the spec-literal index covers it
		}
		verb, ok := specName(pass, lit)
		if !ok {
			return
		}
		b.pendingHandlers = append(b.pendingHandlers, pendingHandler{
			verb: verb, handler: call.Args[1], pos: call.Pos(), pkg: pass.Pkg,
			test: pass.Pkg.IsTestFile(pass.Fset, call.Pos()),
		})
		return
	}
	// bind(name, handler): the daemon shell's internal registration for
	// built-ins, matched by callee name and a constant first argument.
	if fn := pass.calleeFunc(call); fn != nil && fn.Name() == "bind" && len(call.Args) == 2 &&
		fn.Pkg() != nil && pass.Prog.IsLocal(fn.Pkg().Path()) {
		if tv, ok := pass.Pkg.Info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
			b.pendingHandlers = append(b.pendingHandlers, pendingHandler{
				verb: constant.StringVal(tv.Value), handler: call.Args[1], pos: call.Pos(), pkg: pass.Pkg,
				test: pass.Pkg.IsTestFile(pass.Fset, call.Pos()),
			})
		}
	}
}

// isHandleCall matches a `recv.Handle(spec, handler)` method call whose
// first parameter is a cmdlang CommandSpec.
func isHandleCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Handle" || len(call.Args) != 2 {
		return false
	}
	fn := pass.calleeFunc(call)
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && sig.Params().Len() == 2 && isCommandSpec(pass, sig.Params().At(0).Type())
}

// isCommandSpec matches the cmdlang.CommandSpec type (by name, in a
// module-local package, with a Name field) so the golden-test
// stand-ins qualify.
func isCommandSpec(pass *Pass, t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != "CommandSpec" || obj.Pkg() == nil || !pass.Prog.IsLocal(obj.Pkg().Path()) {
		return false
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if s.Field(i).Name() == "Name" {
			return true
		}
	}
	return false
}

// specName extracts the Name field from a CommandSpec composite
// literal, resolving string literals and named constants (Name:
// CmdPing) through the type checker's constant folding. ok is false
// when the name is absent, empty, or not a compile-time constant.
func specName(pass *Pass, lit *ast.CompositeLit) (name string, ok bool) {
	for _, el := range lit.Elts {
		kv, isKV := el.(*ast.KeyValueExpr)
		if !isKV {
			continue
		}
		if key, isIdent := kv.Key.(*ast.Ident); isIdent && key.Name == "Name" {
			name = constString(pass, kv.Value)
			return name, name != ""
		}
	}
	return "", false
}

// recordSpec indexes every CommandSpec literal with a constant name.
func (b *graphBuilder) recordSpec(pass *Pass, lit *ast.CompositeLit) {
	if !isCommandSpec(pass, pass.TypeOf(lit)) {
		return
	}
	verb, ok := specName(pass, lit)
	if !ok {
		return
	}
	b.graph.Specs = append(b.graph.Specs, &SpecSite{
		Verb: verb, Lit: lit, Pos: lit.Pos(), Pkg: pass.Pkg,
		Test: pass.Pkg.IsTestFile(pass.Fset, lit.Pos()),
	})
}

// resolveInterfaces adds the conservative dispatch edges: each
// interface call site fans out to every module method with the same
// name and parameter count whose receiver type carries every method
// the interface declares. Matching by type identity is impossible
// across type-check units (the same named type exists once per unit),
// so the engine compares method-name sets instead — still an
// over-approximation (analyzers must tolerate extra edges, not missing
// ones), but tight enough that hash.Hash.Write does not dispatch to a
// net.Conn wrapper.
func (b *graphBuilder) resolveInterfaces() {
	byName := make(map[string][]*Node)
	for _, n := range b.graph.Nodes {
		if n.Func == nil || n.Body == nil {
			continue
		}
		sig, ok := n.Func.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		byName[n.Func.Name()] = append(byName[n.Func.Name()], n)
	}
	for _, list := range byName {
		sort.Slice(list, func(i, j int) bool { return list[i].Key < list[j].Key })
	}
	recvMethods := make(map[*Node]map[string]bool)
	type edgeSeen struct {
		from *Node
		to   *Node
	}
	seen := make(map[edgeSeen]bool)
	for _, ic := range b.iface {
		for _, impl := range byName[ic.name] {
			sig := impl.Func.Type().(*types.Signature)
			if sig.Params().Len() != ic.nargs {
				continue
			}
			if !implementsByName(recvMethods, impl, ic.methods) {
				continue
			}
			if seen[edgeSeen{ic.from, impl}] {
				continue
			}
			seen[edgeSeen{ic.from, impl}] = true
			b.addEdge(ic.from, impl, ic.pos, EdgeInterface)
		}
	}
}

// implementsByName reports whether the candidate method's receiver type
// has every method name the interface requires (pointer method set,
// since a concrete value stored in an interface may be addressable).
func implementsByName(cache map[*Node]map[string]bool, impl *Node, required []string) bool {
	if len(required) == 0 {
		return true // interface type unresolved; fall back to name+arity
	}
	set, ok := cache[impl]
	if !ok {
		set = make(map[string]bool)
		t := impl.Func.Type().(*types.Signature).Recv().Type()
		if _, isPtr := t.(*types.Pointer); !isPtr {
			t = types.NewPointer(t)
		}
		ms := types.NewMethodSet(t)
		for i := 0; i < ms.Len(); i++ {
			set[ms.At(i).Obj().Name()] = true
		}
		cache[impl] = set
	}
	for _, name := range required {
		if !set[name] {
			return false
		}
	}
	return true
}

// resolveHandlers maps each pending registration's handler expression
// to a node now that literals are all known.
func (b *graphBuilder) resolveHandlers() {
	for _, ph := range b.pendingHandlers {
		reg := &HandlerReg{Verb: ph.verb, Pos: ph.pos, Test: ph.test}
		switch h := ast.Unparen(ph.handler).(type) {
		case *ast.FuncLit:
			reg.Handler = b.litNodes[h]
		case *ast.Ident:
			if fn, ok := ph.pkg.Info.Uses[h].(*types.Func); ok {
				reg.Handler = b.graph.NodeFor(fn)
			}
		case *ast.SelectorExpr:
			if fn, ok := ph.pkg.Info.Uses[h.Sel].(*types.Func); ok {
				reg.Handler = b.graph.NodeFor(fn)
			}
		}
		b.graph.Handlers = append(b.graph.Handlers, reg)
	}
}

// ReachableSync returns the set of nodes reachable from start along
// synchronous edges (static, closure, interface — not go spawns),
// including start itself. When moduleOnly is set the walk stays on
// nodes with bodies.
func (g *Graph) ReachableSync(start *Node, moduleOnly bool) map[*Node]bool {
	seen := map[*Node]bool{start: true}
	stack := []*Node{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range n.Out {
			if !e.Kind.Sync() || seen[e.To] {
				continue
			}
			if moduleOnly && e.To.External() {
				continue
			}
			seen[e.To] = true
			stack = append(stack, e.To)
		}
	}
	return seen
}
