package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// DeadlineCheck walks the call graph to prove that every path from a
// daemon entry point to a blocking wire operation passes through a
// deadline. The ACE convention (PROTOCOL.md "Timeouts, retries, and
// failure semantics") is that transport APIs guard themselves:
//
//	if _, ok := ctx.Deadline(); !ok {
//	        ctx, cancel = context.WithTimeout(ctx, CallTimeout)
//	        defer cancel()
//	}
//
// A function that installs a deadline (context.WithTimeout /
// WithDeadline, or an explicit conn.Set*Deadline) caps the exposure of
// everything it calls. The check computes, over synchronous call
// edges only, which functions can reach a blocking sink — a frame
// read/write in the wire package, or a net / crypto/tls dial,
// handshake, read, write, or accept — without crossing a
// deadline-installing function, then reports every *entry point* that
// is exposed: main functions, registered verb handlers, and exported
// module API taking a context (callable with a deadline-less
// context.Background()). Goroutine bodies are not entries — a spawned
// read loop blocking forever is by design (its owner's shutdown closes
// the connection under it) and a `go` edge never blocks the spawner.
var DeadlineCheck = &Analyzer{
	Name:       "deadlinecheck",
	Doc:        "an entry point can reach a blocking wire call with no deadline on any path",
	RunProgram: runDeadlineCheck,
}

func runDeadlineCheck(pp *ProgPass) {
	g := pp.Graph

	guarded := make(map[*Node]bool)
	for _, n := range g.Nodes {
		if n.Body == nil {
			continue
		}
		if installsDeadline(pp, n) {
			guarded[n] = true
		}
	}

	// Exposure = reverse reachability from sinks along synchronous
	// edges, stopping at deadline-installing functions.
	exposed := make(map[*Node]bool)
	var queue []*Node
	for _, n := range g.SortedNodes() {
		if isDeadlineSink(n) && !guarded[n] {
			exposed[n] = true
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.In {
			if !e.Kind.Sync() || exposed[e.From] || guarded[e.From] {
				continue
			}
			if isDeadlineSink(e.From) {
				continue // already seeded (or guarded) on its own terms
			}
			exposed[e.From] = true
			queue = append(queue, e.From)
		}
	}

	handlerNodes := make(map[*Node]string)
	for _, h := range g.Handlers {
		if !h.Test && h.Handler != nil {
			handlerNodes[h.Handler] = h.Verb
		}
	}

	for _, n := range g.SortedNodes() {
		if !exposed[n] || n.Body == nil || n.Pkg == nil {
			continue
		}
		if n.Pkg.IsTestFile(pp.Fset, n.Body.Pos()) {
			continue
		}
		entry := deadlineEntryKind(pp, n, handlerNodes)
		if entry == "" {
			continue
		}
		path := witnessPath(n, exposed, guarded)
		pp.Reportf(n.Body.Pos(), "%s %s can reach a blocking call with no deadline on the path: %s; install one (context.WithTimeout or the ctx.Deadline() guard)",
			entry, n.Name, path)
	}
}

// deadlineEntryKind classifies a node as a deadline entry point, or
// returns "" when paths into it are some caller's responsibility.
func deadlineEntryKind(pp *ProgPass, n *Node, handlers map[*Node]string) string {
	if verb, ok := handlers[n]; ok {
		return "handler for verb " + `"` + verb + `" in`
	}
	fn := n.Func
	if fn == nil {
		return ""
	}
	if fn.Name() == "main" && fn.Pkg() != nil && fn.Pkg().Name() == "main" {
		sig, ok := fn.Type().(*types.Signature)
		if ok && sig.Recv() == nil {
			return "entry point"
		}
	}
	// Exported module API taking a context: callable from outside with
	// context.Background(), so the deadline must be installed at or
	// below this frame.
	if fn.Exported() && fn.Pkg() != nil && pp.Prog.IsLocal(fn.Pkg().Path()) && hasContextParam(fn) {
		return "exported"
	}
	return ""
}

func hasContextParam(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// installsDeadline reports whether the node's own body (excluding
// nested literals, which are their own nodes) installs a deadline:
// context.WithTimeout / WithDeadline, or conn.SetDeadline /
// SetReadDeadline / SetWriteDeadline.
func installsDeadline(pp *ProgPass, n *Node) bool {
	pass := pp.PackagePass(n.Pkg)
	found := false
	skip := ownLiterals(n)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if found {
			return false
		}
		if lit, ok := node.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := pass.calleeFunc(call)
		if fn == nil {
			return true
		}
		switch {
		case fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
			(fn.Name() == "WithTimeout" || fn.Name() == "WithDeadline"):
			found = true
		case strings.HasPrefix(fn.Name(), "Set") && strings.HasSuffix(fn.Name(), "Deadline"):
			found = true
		}
		return !found
	})
	return found
}

// ownLiterals returns the literals that belong to other nodes (every
// FuncLit inside n.Body): their statements must not be charged to n.
func ownLiterals(n *Node) map[*ast.FuncLit]bool {
	skip := make(map[*ast.FuncLit]bool)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok {
			skip[lit] = true
			return false
		}
		return true
	})
	// For a literal node, n.Body *is* the literal's body; the map just
	// collected nested literals correctly since Inspect starts inside.
	return skip
}

// isDeadlineSink reports whether the node is an intrinsic blocking
// operation: frame I/O in a wire package, or the blocking entry
// points of net and crypto/tls.
func isDeadlineSink(n *Node) bool {
	fn := n.Func
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "net":
		switch name {
		case "Dial", "DialContext", "Read", "Write", "Accept", "AcceptTCP":
			return true
		}
	case "crypto/tls":
		switch name {
		case "Read", "Write", "Handshake", "HandshakeContext":
			return true
		}
	}
	// The module's own framing layer blocks until the peer produces or
	// drains bytes, behind io.Reader and io.Writer, which hide the
	// net.Conn from the graph, so its functions are sinks by name:
	// ReadFrame, the function and the per-connection Reader's method
	// alike, and writeFrame, the one place every frame — WriteFrame,
	// WriteCmd, WriteReply, a client's request — is handed to Write.
	// WriteFrame stays on the list for wire packages that write there.
	if fn.Pkg().Name() == "wire" {
		switch name {
		case "ReadFrame", "WriteFrame", "writeFrame":
			return true
		}
	}
	return false
}

// witnessPath renders one concrete exposed path from n to a sink for
// the finding message, walking deterministically (sorted edges).
func witnessPath(n *Node, exposed, guarded map[*Node]bool) string {
	var steps []string
	seen := make(map[*Node]bool)
	cur := n
	for {
		seen[cur] = true
		steps = append(steps, cur.Name)
		if isDeadlineSink(cur) {
			break
		}
		next := (*Node)(nil)
		var candidates []Edge
		for _, e := range cur.Out {
			if e.Kind.Sync() && !seen[e.To] && !guarded[e.To] && (exposed[e.To] || isDeadlineSink(e.To)) {
				candidates = append(candidates, e)
			}
		}
		sort.Slice(candidates, func(i, j int) bool {
			// Prefer reaching a sink directly; then deterministic order.
			si, sj := isDeadlineSink(candidates[i].To), isDeadlineSink(candidates[j].To)
			if si != sj {
				return si
			}
			return candidates[i].To.Key < candidates[j].To.Key
		})
		if len(candidates) > 0 {
			next = candidates[0].To
		}
		if next == nil {
			break
		}
		cur = next
	}
	return strings.Join(steps, " → ")
}
