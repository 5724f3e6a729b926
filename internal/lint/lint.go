package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"time"
)

// Finding is one analyzer diagnostic, printed as
// "file:line: [check] message".
type Finding struct {
	Pos   token.Position
	Check string
	Msg   string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Check, f.Msg)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Prog *Program
	Pkg  *Package
	Fset *token.FileSet

	check  string
	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{Pos: p.Fset.Position(pos), Check: p.check, Msg: fmt.Sprintf(format, args...)})
}

// typeStr prints a type with bare package names ("*wire.Client"
// rather than "*ace/internal/wire.Client") for readable findings.
func (p *Pass) typeStr(t types.Type) string {
	return types.TypeString(t, func(other *types.Package) string {
		if other == p.Pkg.Types {
			return ""
		}
		return other.Name()
	})
}

// TypeOf returns the type of an expression, or nil when type checking
// did not resolve it (broken packages are still analyzed).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// calleeFunc resolves the called function or method, unwrapping
// parenthesized expressions. Returns nil for indirect calls, builtin
// calls, and type conversions.
func (p *Pass) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// ProgPass carries a program-level analyzer's view of the whole
// loaded package set: the call graph and every package at once.
// Interprocedural checks (deadlinecheck, verbconformance, metricnames)
// run here instead of per package.
type ProgPass struct {
	Prog  *Program
	Fset  *token.FileSet
	Graph *Graph

	check  string
	report func(Finding)
}

// Reportf records a finding at pos.
func (p *ProgPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{Pos: p.Fset.Position(pos), Check: p.check, Msg: fmt.Sprintf(format, args...)})
}

// PackagePass builds a per-package Pass for reuse of the intra-
// procedural helpers (TypeOf, calleeFunc, …) inside a program pass.
func (p *ProgPass) PackagePass(pkg *Package) *Pass {
	return &Pass{Prog: p.Prog, Pkg: pkg, Fset: p.Fset, check: p.check, report: p.report}
}

// Analyzer is one acelint check. Run executes once per package;
// RunProgram executes once over the whole loaded set with the call
// graph available. An analyzer defines one or the other (defining both
// runs both).
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgPass)
}

// All lists every analyzer in the order they run.
var All = []*Analyzer{
	CtxPropagation,
	LockHold,
	DroppedErr,
	VerbConformance,
	DeadlineCheck,
	MetricNames,
}

// ByName resolves a comma-separated check list ("ctxpropagation,lockhold")
// against All.
func ByName(list string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("acelint: unknown check %q", name)
		}
	}
	return out, nil
}

// IgnoreDirective is the comment prefix that suppresses findings:
//
//	//acelint:ignore <check>[,<check>...] <reason>
//
// placed on the flagged line or on its own line directly above. The
// check field is a comma-separated list so one directive can silence
// several analyzers on the same line. The reason is mandatory, and a
// suppression that matches nothing is itself reported (check name
// "ignore") so stale pragmas cannot accumulate — with a multi-check
// directive, each listed check must match a finding.
const IgnoreDirective = "acelint:ignore"

type suppression struct {
	pos   token.Position // position of the directive comment
	check string
	line  int // the single line the suppression covers
	used  bool
}

// covers reports whether the suppression applies to a finding at the
// given position: exactly one line — the directive's own line for a
// trailing comment, or the line directly below for a directive alone
// on its line.
func (s *suppression) covers(file string, line int) bool {
	return s.pos.Filename == file && line == s.line
}

// standaloneComment reports whether only whitespace precedes the
// comment on its source line (consulting the file text, since the AST
// does not record this).
func standaloneComment(lineCache map[string][]string, pos token.Position) bool {
	lines, ok := lineCache[pos.Filename]
	if !ok {
		data, err := os.ReadFile(pos.Filename)
		if err == nil {
			lines = strings.Split(string(data), "\n")
		}
		lineCache[pos.Filename] = lines
	}
	if pos.Line-1 >= len(lines) || pos.Column < 1 {
		return false
	}
	prefix := lines[pos.Line-1]
	if pos.Column-1 < len(prefix) {
		prefix = prefix[:pos.Column-1]
	}
	return strings.TrimSpace(prefix) == ""
}

// collectSuppressions parses acelint:ignore directives in a file.
// Malformed directives are reported immediately via report.
func collectSuppressions(fset *token.FileSet, f *ast.File, known map[string]bool, lineCache map[string][]string, report func(Finding)) []*suppression {
	var sups []*suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, "//")
			if !ok {
				continue // /* */ comments do not carry directives
			}
			text = strings.TrimSpace(text)
			rest, ok := strings.CutPrefix(text, IgnoreDirective)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				report(Finding{Pos: pos, Check: "ignore", Msg: "acelint:ignore needs a check name and a reason"})
				continue
			}
			var checks []string
			badName := false
			for _, check := range strings.Split(fields[0], ",") {
				check = strings.TrimSpace(check)
				if check == "" || !known[check] {
					report(Finding{Pos: pos, Check: "ignore", Msg: fmt.Sprintf("acelint:ignore names unknown check %q", check)})
					badName = true
					continue
				}
				checks = append(checks, check)
			}
			if badName && len(checks) == 0 {
				continue
			}
			if len(fields) < 2 {
				report(Finding{Pos: pos, Check: "ignore", Msg: fmt.Sprintf("acelint:ignore %s needs a reason", fields[0])})
				continue
			}
			line := pos.Line
			if standaloneComment(lineCache, pos) {
				line++
			}
			// One suppression entry per listed check: each must match a
			// finding or be reported as unused on its own.
			for _, check := range checks {
				sups = append(sups, &suppression{pos: pos, check: check, line: line})
			}
		}
	}
	return sups
}

// AnalyzerTiming records how long one analyzer spent across the whole
// program, for `acelint -timing`. The
// pseudo-entry "callgraph" reports the one-time graph construction
// cost shared by the program-level analyzers.
type AnalyzerTiming struct {
	Check   string
	Elapsed time.Duration
}

// Run executes the analyzers over every package in prog, applies
// suppression directives, and returns the surviving findings sorted
// by position. Unused or malformed suppressions are returned as
// findings of the pseudo-check "ignore".
func Run(prog *Program, analyzers []*Analyzer) []Finding {
	findings, _ := RunTimed(prog, analyzers)
	return findings
}

// RunTimed is Run plus per-analyzer wall-clock timings.
func RunTimed(prog *Program, analyzers []*Analyzer) ([]Finding, []AnalyzerTiming) {
	known := make(map[string]bool)
	for _, a := range All {
		known[a.Name] = true
	}

	var raw []Finding
	collect := func(f Finding) { raw = append(raw, f) }

	elapsed := make(map[string]time.Duration)
	var order []string
	timed := func(name string, fn func()) {
		start := time.Now()
		fn()
		if _, ok := elapsed[name]; !ok {
			order = append(order, name)
		}
		elapsed[name] += time.Since(start)
	}

	var sups []*suppression
	var supFindings []Finding
	seenFile := make(map[string]bool)
	lineCache := make(map[string][]string)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			name := prog.Fset.Position(f.Pos()).Filename
			if seenFile[name] {
				continue // base files appear once even if shared across units
			}
			seenFile[name] = true
			sups = append(sups, collectSuppressions(prog.Fset, f, known, lineCache, func(f Finding) {
				supFindings = append(supFindings, f)
			})...)
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Prog: prog, Pkg: pkg, Fset: prog.Fset, check: a.Name, report: collect}
			timed(a.Name, func() { a.Run(pass) })
		}
	}

	// Program-level passes: build the call graph once, lazily, only
	// when an enabled analyzer actually needs it.
	needGraph := false
	for _, a := range analyzers {
		if a.RunProgram != nil {
			needGraph = true
		}
	}
	if needGraph {
		timed("callgraph", func() { prog.Graph() })
		for _, a := range analyzers {
			if a.RunProgram == nil {
				continue
			}
			pp := &ProgPass{Prog: prog, Fset: prog.Fset, Graph: prog.Graph(), check: a.Name, report: collect}
			timed(a.Name, func() { a.RunProgram(pp) })
		}
	}

	var out []Finding
	for _, f := range raw {
		suppressed := false
		for _, s := range sups {
			if s.check == f.Check && s.covers(f.Pos.Filename, f.Pos.Line) {
				s.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, f)
		}
	}
	for _, s := range sups {
		if !s.used {
			out = append(out, Finding{Pos: s.pos, Check: "ignore",
				Msg: fmt.Sprintf("unused acelint:ignore for %q: no such finding here", s.check)})
		}
	}
	out = append(out, supFindings...)

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Msg < b.Msg
	})
	// Findings can be duplicated when a file is analyzed in both the
	// merged-test unit and as a dependency elsewhere; dedup exactly.
	dedup := out[:0]
	var last Finding
	for i, f := range out {
		if i == 0 || f != last {
			dedup = append(dedup, f)
		}
		last = f
	}

	timings := make([]AnalyzerTiming, 0, len(order))
	for _, name := range order {
		timings = append(timings, AnalyzerTiming{Check: name, Elapsed: elapsed[name]})
	}
	return dedup, timings
}
