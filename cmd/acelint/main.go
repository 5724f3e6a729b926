// Command acelint is ACE's static analyzer: six checks built only on
// the standard library's go/ast + go/parser + go/types. Three are
// intraprocedural (context propagation, no mutexes held across wire
// I/O, no dropped transport errors); three run on a package-set-wide
// call graph (wire-protocol verb conformance, deadline propagation,
// metric naming). See docs/LINT.md.
//
// Usage:
//
//	acelint [-checks list] [-list] [-timing] [packages]
//	acelint -metrics-doc docs/METRICS.md [packages]
//	acelint -verbs-doc docs/PROTOCOL.md [packages]
//
// Findings print as "file:line: [check] message"; the exit status is 1
// when anything is found, 2 on usage or load errors. A finding is
// suppressed by an `//acelint:ignore <check>[,<check>...] <reason>`
// comment on the flagged line or the line above; unused suppressions
// are themselves findings. -timing prints each analyzer's wall time to
// stderr. The -metrics-doc and -verbs-doc modes regenerate the
// machine-checked documentation from the extracted registries instead
// of linting: -metrics-doc rewrites the target file wholesale,
// -verbs-doc splices the verb table between its markers ("-" prints
// to stdout).
package main

import (
	"flag"
	"fmt"
	"go/scanner"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ace/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("acelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated checks to run (default: all)")
	list := fs.Bool("list", false, "list available checks and exit")
	timing := fs.Bool("timing", false, "print per-analyzer wall-clock timings to stderr")
	metricsDoc := fs.String("metrics-doc", "", "generate the telemetry metrics table into the given file (\"-\" = stdout) and exit")
	verbsDoc := fs.String("verbs-doc", "", "regenerate the verb table between markers in the given file (\"-\" = stdout) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *checks != "" {
		var err error
		analyzers, err = lint.ByName(*checks)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	start := time.Now()
	prog, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *metricsDoc != "" || *verbsDoc != "" {
		return generateDocs(prog, *metricsDoc, *verbsDoc, stdout, stderr)
	}

	findings, timings := lint.RunTimed(prog, analyzers)
	elapsed := time.Since(start)

	bad := 0
	for _, lerr := range prog.LoadErrors {
		bad++
		fmt.Fprintf(stdout, "%s\n", formatLoadError(cwd, lerr))
	}
	for _, finding := range findings {
		bad++
		pos := finding.Pos
		fmt.Fprintf(stdout, "%s:%d: [%s] %s\n", relPath(cwd, pos.Filename), pos.Line, finding.Check, finding.Msg)
	}
	if *timing {
		for _, t := range timings {
			fmt.Fprintf(stderr, "%-18s %8.1fms\n", t.Check, float64(t.Elapsed.Microseconds())/1000)
		}
		fmt.Fprintf(stderr, "%-18s %8.1fms\n", "total", float64(elapsed.Microseconds())/1000)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "acelint: %d finding(s)\n", bad)
		return 1
	}
	return 0
}

// generateDocs runs the -metrics-doc / -verbs-doc modes.
func generateDocs(prog *lint.Program, metricsDoc, verbsDoc string, stdout, stderr *os.File) int {
	if metricsDoc != "" {
		out := lint.MetricsMarkdown(lint.ExtractMetrics(prog))
		if metricsDoc == "-" {
			fmt.Fprint(stdout, out)
		} else if err := os.WriteFile(metricsDoc, []byte(out), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if verbsDoc != "" {
		verbs := lint.ExtractVerbs(prog)
		if verbsDoc == "-" {
			fmt.Fprint(stdout, lint.VerbTableMarkdown(verbs))
			return 0
		}
		data, err := os.ReadFile(verbsDoc)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		spliced, err := lint.SpliceVerbTable(string(data), verbs)
		if err != nil {
			fmt.Fprintf(stderr, "acelint: %s: %v\n", verbsDoc, err)
			return 2
		}
		if err := os.WriteFile(verbsDoc, []byte(spliced), 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return 0
}

// formatLoadError renders parse and type errors in the same
// file:line: [check] shape as analyzer findings.
func formatLoadError(cwd string, err error) string {
	switch e := err.(type) {
	case types.Error:
		pos := e.Fset.Position(e.Pos)
		return fmt.Sprintf("%s:%d: [typecheck] %s", relPath(cwd, pos.Filename), pos.Line, e.Msg)
	case scanner.ErrorList:
		if len(e) > 0 {
			return fmt.Sprintf("%s:%d: [parse] %s", relPath(cwd, e[0].Pos.Filename), e[0].Pos.Line, e[0].Msg)
		}
	case *scanner.Error:
		return fmt.Sprintf("%s:%d: [parse] %s", relPath(cwd, e.Pos.Filename), e.Pos.Line, e.Msg)
	}
	return fmt.Sprintf("[load] %v", err)
}

// relPath shortens absolute finding paths relative to the working
// directory for readable, clickable output.
func relPath(cwd, path string) string {
	if rel, err := filepath.Rel(cwd, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
