package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// VerbConformance checks the cmdlang verb protocol across the whole
// package set: the registered command surface (every CommandSpec with
// a constant-folded name, every Handle/bind registration) against
// every client-side invocation (cmdlang.New command builders flowing
// into wire.Client.Call* and daemon.Pool sends). It flags:
//
//   - verbs called but never registered anywhere (protocol drift: the
//     call can only ever earn an unknown_command reply);
//   - argument keys set by a caller that no spec for the verb declares
//     (when the spec does not opt into AllowExtra) — the daemon-side
//     Registry.Validate will reject the command at runtime;
//   - verbs registered with a handler that no in-tree caller ever
//     invokes (dead protocol surface — or a missing client);
//   - reply codes checked by callers (cmdlang.IsRemoteCode(err, code))
//     that no handler of the called verb ever emits, computed
//     transitively over the call graph, e.g. a client matching
//     wrong_group against a verb whose handlers never return it.
//
// The check is conservative where the verb is not statically known: a
// command built from a variable (acectl's CLI passthrough, the
// notification dispatcher's method names) contributes nothing, and a
// reply-code check on an error that cannot be traced to a known-verb
// call in the same function is skipped.
var VerbConformance = &Analyzer{
	Name:       "verbconformance",
	Doc:        "cmdlang verb called/argued/code-checked inconsistently with its registered handlers",
	RunProgram: runVerbConformance,
}

// shellCodes are emitted by the daemon shell for any verb regardless
// of its handler: dispatch failures, validation, auth, and overload.
var shellCodes = map[string]bool{
	"unknown_command": true,
	"bad_argument":    true,
	"denied":          true,
	"busy":            true,
	"internal":        true,
}

// protocolArgs are stamped onto commands by the transport, not by
// callers against a spec: the client sequence number and the sharded
// store's placement epoch.
var protocolArgs = map[string]bool{"seq": true, "epoch": true}

// argDetail is one declared argument of a spec.
type argDetail struct {
	name     string
	kind     string
	doc      string
	required bool
}

// specDetail is one parsed CommandSpec literal.
type specDetail struct {
	verb       string
	args       map[string]argDetail
	allowExtra bool
	doc        string
	pos        token.Pos
	pkg        *Package
	test       bool
}

// verbEntry aggregates everything known about one verb.
type verbEntry struct {
	specs    []specDetail  // all parsed spec literals (test and not)
	handlers []*HandlerReg // Handle/bind registrations
	emits    map[string]bool
}

func (e *verbEntry) registered() bool {
	for _, s := range e.specs {
		if !s.test {
			return true
		}
	}
	for _, h := range e.handlers {
		if !h.Test {
			return true
		}
	}
	return false
}

func (e *verbEntry) declaresArg(key string) bool {
	for _, s := range e.specs {
		if s.allowExtra {
			return true
		}
		if _, ok := s.args[key]; ok {
			return true
		}
	}
	return false
}

// verbUse is one statically-known client invocation site.
type verbUse struct {
	verb string
	pos  token.Pos
	test bool
}

// keyUse is one Set*(constKey, ...) applied to a known-verb command.
type keyUse struct {
	verb, key string
	pos       token.Pos
	test      bool
}

// codeCheck is one IsRemoteCode(err, code) with err traced to a
// known-verb call.
type codeCheck struct {
	verb, code string
	pos        token.Pos
	test       bool
}

func runVerbConformance(pp *ProgPass) {
	reg := buildVerbRegistry(pp)

	var uses []verbUse
	var keys []keyUse
	var checks []codeCheck
	for _, pkg := range pp.Prog.Packages {
		pass := pp.PackagePass(pkg)
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				u, k, c := scanFunctionUses(pass, fd.Body)
				uses = append(uses, u...)
				keys = append(keys, k...)
				checks = append(checks, c...)
			}
		}
	}

	computeEmittedCodes(pp, reg)

	// (a) called but never registered.
	reported := make(map[token.Pos]bool)
	for _, u := range uses {
		if u.test || reported[u.pos] {
			continue
		}
		if e, ok := reg[u.verb]; ok && e.registered() {
			continue
		}
		reported[u.pos] = true
		pp.Reportf(u.pos, "verb %q is called here but no CommandSpec anywhere registers it; the daemon will reply unknown_command", u.verb)
	}

	// (b) caller sets an argument key no spec declares.
	for _, k := range keys {
		if k.test || protocolArgs[k.key] {
			continue
		}
		e, ok := reg[k.verb]
		if !ok || !e.registered() {
			continue // (a) already covers the verb itself
		}
		if e.declaresArg(k.key) {
			continue
		}
		pp.Reportf(k.pos, "verb %q has no declared argument %q (and no spec allows extras); Registry.Validate will reject this command", k.verb, k.key)
	}

	// (c) registered with a handler but never called in-tree.
	called := make(map[string]bool)
	for _, u := range uses {
		called[u.verb] = true
	}
	for _, verb := range sortedVerbNames(reg) {
		e := reg[verb]
		if called[verb] {
			continue
		}
		var firstReg *HandlerReg
		for _, h := range e.handlers {
			if !h.Test {
				firstReg = h
				break
			}
		}
		if firstReg == nil {
			continue // spec-only declarations don't claim a caller exists
		}
		pp.Reportf(firstReg.Pos, "verb %q is registered here but never invoked by any in-tree caller (cmdlang.New(%q) appears nowhere); dead protocol surface or missing client", verb, verb)
	}

	// (d) reply codes checked but never emitted by the verb's handlers.
	for _, c := range checks {
		if c.test || shellCodes[c.code] {
			continue
		}
		e, ok := reg[c.verb]
		if !ok || !e.registered() {
			continue
		}
		if len(e.emits) == 0 {
			continue // no resolvable handler body; nothing provable
		}
		if e.emits[c.code] {
			continue
		}
		pp.Reportf(c.pos, "caller checks reply code %q on verb %q, but no handler of %q ever emits it", c.code, c.verb, c.verb)
	}
}

// buildVerbRegistry folds the graph's spec and handler indexes into
// per-verb entries.
func buildVerbRegistry(pp *ProgPass) map[string]*verbEntry {
	reg := make(map[string]*verbEntry)
	entry := func(verb string) *verbEntry {
		e, ok := reg[verb]
		if !ok {
			e = &verbEntry{emits: make(map[string]bool)}
			reg[verb] = e
		}
		return e
	}
	for _, s := range pp.Graph.Specs {
		pass := pp.PackagePass(s.Pkg)
		entry(s.Verb).specs = append(entry(s.Verb).specs, parseSpecDetail(pass, s))
	}
	for _, h := range pp.Graph.Handlers {
		entry(h.Verb).handlers = append(entry(h.Verb).handlers, h)
	}
	return reg
}

// parseSpecDetail extracts arg names/kinds/required flags, AllowExtra,
// and the doc string from one CommandSpec literal via constant folding.
func parseSpecDetail(pass *Pass, s *SpecSite) specDetail {
	d := specDetail{verb: s.Verb, args: make(map[string]argDetail), pos: s.Pos, pkg: s.Pkg, test: s.Test}
	for _, el := range s.Lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Doc":
			d.doc = constString(pass, kv.Value)
		case "AllowExtra":
			if tv, ok := pass.Pkg.Info.Types[kv.Value]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
				d.allowExtra = constant.BoolVal(tv.Value)
			}
		case "Args":
			cl, ok := ast.Unparen(kv.Value).(*ast.CompositeLit)
			if !ok {
				continue
			}
			for _, ael := range cl.Elts {
				al, ok := ast.Unparen(ael).(*ast.CompositeLit)
				if !ok {
					continue
				}
				arg := parseArgSpec(pass, al)
				if arg.name != "" {
					d.args[arg.name] = arg
				}
			}
		}
	}
	return d
}

func parseArgSpec(pass *Pass, lit *ast.CompositeLit) argDetail {
	var a argDetail
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		switch key.Name {
		case "Name":
			a.name = constString(pass, kv.Value)
		case "Doc":
			a.doc = constString(pass, kv.Value)
		case "Required":
			if tv, ok := pass.Pkg.Info.Types[kv.Value]; ok && tv.Value != nil && tv.Value.Kind() == constant.Bool {
				a.required = constant.BoolVal(tv.Value)
			}
		case "Kind":
			switch v := ast.Unparen(kv.Value).(type) {
			case *ast.SelectorExpr:
				a.kind = kindName(v.Sel.Name)
			case *ast.Ident:
				a.kind = kindName(v.Name)
			}
		}
	}
	return a
}

// kindName renders "KindWord" as "word" for documentation output.
func kindName(ident string) string {
	if rest, ok := strings.CutPrefix(ident, "Kind"); ok && rest != "" {
		return strings.ToLower(rest)
	}
	return ident
}

func constString(pass *Pass, e ast.Expr) string {
	if tv, ok := pass.Pkg.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return ""
}

// computeEmittedCodes walks the call graph from each handler and
// collects the reply codes it can emit: cmdlang.Fail(code, ...) with a
// constant code, cmdlang.Busy (→ busy), cmdlang.FailErr (→ internal /
// bad_argument), and RemoteError{Code: ...} literals. The shell's own
// codes are always included.
func computeEmittedCodes(pp *ProgPass, reg map[string]*verbEntry) {
	nodeCodes := make(map[*Node]map[string]bool)
	for _, e := range reg {
		for code := range shellCodes {
			e.emits[code] = true
		}
		for _, h := range e.handlers {
			if h.Handler == nil {
				continue
			}
			reach := pp.Graph.ReachableSync(h.Handler, true)
			var nodes []*Node
			for n := range reach {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i].Key < nodes[j].Key })
			for _, n := range nodes {
				codes, ok := nodeCodes[n]
				if !ok {
					codes = emittedInBody(pp, n)
					nodeCodes[n] = codes
				}
				for c := range codes {
					e.emits[c] = true
				}
			}
		}
	}
}

// emittedInBody collects reply codes produced directly in one node's
// body (excluding nested literals, which are separate nodes).
func emittedInBody(pp *ProgPass, n *Node) map[string]bool {
	codes := make(map[string]bool)
	if n.Body == nil || n.Pkg == nil {
		return codes
	}
	pass := pp.PackagePass(n.Pkg)
	skip := ownLiterals(n)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		switch node := node.(type) {
		case *ast.CallExpr:
			fn := pass.calleeFunc(node)
			if fn == nil || fn.Pkg() == nil || !pass.Prog.IsLocal(fn.Pkg().Path()) || fn.Pkg().Name() != "cmdlang" {
				return true
			}
			switch fn.Name() {
			case "Fail":
				if len(node.Args) >= 1 {
					if code := constString(pass, node.Args[0]); code != "" {
						codes[code] = true
					}
				}
			case "Busy":
				codes["busy"] = true
			case "FailErr":
				codes["internal"] = true
				codes["bad_argument"] = true
			}
		case *ast.CompositeLit:
			t := pass.TypeOf(node)
			if t == nil {
				return true
			}
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Name() != "RemoteError" || named.Obj().Pkg() == nil || !pass.Prog.IsLocal(named.Obj().Pkg().Path()) {
				return true
			}
			for _, el := range node.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Code" {
					if code := constString(pass, kv.Value); code != "" {
						codes[code] = true
					}
				}
			}
		}
		return true
	})
	return codes
}

// scanFunctionUses walks one function body (closures included — they
// share the local variable namespace for tracing) and extracts New
// sites, Set* key uses, and traced reply-code checks.
func scanFunctionUses(pass *Pass, body *ast.BlockStmt) (uses []verbUse, keys []keyUse, checks []codeCheck) {
	test := pass.Pkg.IsTestFile(pass.Fset, body.Pos())
	processed := make(map[*ast.CallExpr]bool)
	varVerb := make(map[types.Object]string)   // cmd variable → verb
	errVerb := make(map[types.Object][]string) // error variable → verbs

	// callVerb resolves the verb of a command expression: a New chain
	// or a variable previously assigned one.
	callVerb := func(e ast.Expr) (string, bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			base := chainBase(e)
			if verb, ok := isNewCall(pass, base); ok {
				return verb, true
			}
		case *ast.Ident:
			if obj := pass.Pkg.Info.Uses[e]; obj != nil {
				if verb, ok := varVerb[obj]; ok {
					return verb, true
				}
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// cmd := cmdlang.New("verb").Set...(...) — remember the verb;
			// ret, err := pool.Call(addr, cmd) — remember err → verb.
			if len(n.Rhs) == 1 {
				if rhs, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if verb, ok := callVerb(rhs); ok && len(n.Lhs) == 1 {
						if id, ok := n.Lhs[0].(*ast.Ident); ok {
							if obj := identObject(pass, id); obj != nil {
								varVerb[obj] = verb
							}
						}
					} else if verb, ok := transportCallVerb(pass, rhs, callVerb); ok {
						for _, lhs := range n.Lhs {
							id, ok := lhs.(*ast.Ident)
							if !ok || id.Name == "_" {
								continue
							}
							obj := identObject(pass, id)
							if obj != nil && isErrorType(obj.Type()) {
								errVerb[obj] = append(errVerb[obj], verb)
							}
						}
					}
				}
			}
		case *ast.CallExpr:
			// A constant string passed for a parameter named "method" of
			// a module-local function is a dynamic verb invocation: the
			// notification dispatcher builds cmdlang.New(method) at fan-out
			// time (daemon.Subscribe and wrappers following the idiom).
			for _, verb := range methodArgVerbs(pass, n) {
				uses = append(uses, verbUse{verb: verb, pos: n.Pos(), test: test})
			}
			// IsRemoteCode(err, code) with a traceable err.
			if fn := pass.calleeFunc(n); fn != nil && fn.Name() == "IsRemoteCode" &&
				fn.Pkg() != nil && pass.Prog.IsLocal(fn.Pkg().Path()) && len(n.Args) == 2 {
				code := constString(pass, n.Args[1])
				if code != "" {
					if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
						if obj := pass.Pkg.Info.Uses[id]; obj != nil {
							for _, verb := range errVerb[obj] {
								checks = append(checks, codeCheck{verb: verb, code: code, pos: n.Pos(), test: test})
							}
						}
					}
				}
			}
			// Set* applied to a known-verb command variable.
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Set") && len(n.Args) >= 1 {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := pass.Pkg.Info.Uses[id]; obj != nil {
						if verb, ok := varVerb[obj]; ok {
							if key := constString(pass, n.Args[0]); key != "" {
								keys = append(keys, keyUse{verb: verb, key: key, pos: n.Pos(), test: test})
							}
						}
					}
				}
			}
			// New chains: process each chain once, from its outermost
			// element, collecting the verb and every constant Set* key.
			if processed[n] {
				return true
			}
			base := chainBase(n)
			verb, ok := isNewCall(pass, base)
			if !ok {
				return true
			}
			for c := n; ; {
				processed[c] = true
				if c == base {
					break
				}
				if sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
					if strings.HasPrefix(sel.Sel.Name, "Set") && len(c.Args) >= 1 {
						if key := constString(pass, c.Args[0]); key != "" {
							keys = append(keys, keyUse{verb: verb, key: key, pos: c.Pos(), test: test})
						}
					}
					inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
					if !ok {
						break
					}
					c = inner
				} else {
					break
				}
			}
			uses = append(uses, verbUse{verb: verb, pos: base.Pos(), test: test})
		}
		return true
	})
	return uses, keys, checks
}

// transportCallVerb reports the verb of a call that sends a command —
// any call carrying a known-verb *CmdLine argument.
func transportCallVerb(pass *Pass, call *ast.CallExpr, callVerb func(ast.Expr) (string, bool)) (string, bool) {
	for _, arg := range call.Args {
		if verb, ok := callVerb(arg); ok {
			return verb, true
		}
		// A bare identifier argument of command type.
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
			if t := pass.TypeOf(id); t != nil && isCmdLineType(pass, t) {
				if verb, ok := callVerb(id); ok {
					return verb, true
				}
			}
		}
	}
	return "", false
}

// methodArgVerbs returns the constant verbs passed for parameters
// named "method" of a module-local callee: the subscription idiom
// (daemon.Subscribe and wrappers) carries the notification callback
// verb as a string the dispatcher later turns into cmdlang.New(method).
func methodArgVerbs(pass *Pass, call *ast.CallExpr) []string {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !pass.Prog.IsLocal(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Variadic() {
		return nil
	}
	var verbs []string
	for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
		p := sig.Params().At(i)
		if p.Name() != "method" {
			continue
		}
		if b, ok := p.Type().(*types.Basic); !ok || b.Kind() != types.String {
			continue
		}
		if verb := constString(pass, call.Args[i]); verb != "" {
			verbs = append(verbs, verb)
		}
	}
	return verbs
}

func identObject(pass *Pass, id *ast.Ident) types.Object {
	if obj := pass.Pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return pass.Pkg.Info.Uses[id]
}

func isCmdLineType(pass *Pass, t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "CmdLine" && obj.Pkg() != nil && pass.Prog.IsLocal(obj.Pkg().Path())
}

// chainBase unwinds a method chain c1().c2().c3() to its base call.
func chainBase(call *ast.CallExpr) *ast.CallExpr {
	for {
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return call
		}
		inner, ok := ast.Unparen(sel.X).(*ast.CallExpr)
		if !ok {
			return call
		}
		call = inner
	}
}

// reservedVerbs are owned by the reply-encoding convention: replies
// are themselves command lines named "ok"/"fail", never requests.
var reservedVerbs = map[string]bool{"ok": true, "fail": true}

// isNewCall matches cmdlang.New("verb") with a constant verb in a
// module-local cmdlang package. Reply builders (OK/Fail) and dynamic
// names don't match.
func isNewCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	fn := pass.calleeFunc(call)
	if fn == nil || fn.Name() != "New" || len(call.Args) != 1 {
		return "", false
	}
	if fn.Pkg() == nil || !pass.Prog.IsLocal(fn.Pkg().Path()) || fn.Pkg().Name() != "cmdlang" {
		return "", false
	}
	verb := constString(pass, call.Args[0])
	if verb == "" || reservedVerbs[verb] {
		return "", false
	}
	return verb, true
}

func sortedVerbNames(reg map[string]*verbEntry) []string {
	names := make([]string, 0, len(reg))
	for v := range reg {
		names = append(names, v)
	}
	sort.Strings(names)
	return names
}
