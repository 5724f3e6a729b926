package lint

// The golden-test harness: each testdata/src/<check>/ directory is a
// tiny self-contained module (own go.mod, stand-in wire/pstore/daemon
// packages) annotated with `// want "regex"` comments. The harness
// loads the module with the real driver, runs one analyzer, and
// demands an exact 1:1 match between findings and want annotations —
// so every golden package fails the suite if its check is disabled
// (the wants go unmatched) and any overreach fails it too (unexpected
// findings).

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// `// want "rx"` expects a finding on its own line; `// want-1 "rx"`
// (or want+N) offsets the expected line, for findings that land on
// comment-only lines such as malformed suppression directives.
var wantLine = regexp.MustCompile(`//\s*want([+-]\d+)?\s+(.+)$`)
var wantQuoted = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// collectWants parses `// want "…" ["…"]` annotations from every .go
// file under dir.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, err = strconv.Atoi(m[1])
				if err != nil {
					return fmt.Errorf("%s:%d: bad want offset: %v", path, i+1, err)
				}
			}
			quotes := wantQuoted.FindAllStringSubmatch(m[2], -1)
			if len(quotes) == 0 {
				return fmt.Errorf("%s:%d: malformed want comment: %s", path, i+1, line)
			}
			for _, q := range quotes {
				src := q[1]
				if src == "" {
					src = q[2]
				}
				re, err := regexp.Compile(src)
				if err != nil {
					return fmt.Errorf("%s:%d: bad want regexp: %v", path, i+1, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1 + offset, re: re})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// runGolden loads testdata/src/<name> and checks analyzers against
// the want annotations.
func runGolden(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load(%s): %v", dir, err)
	}
	for _, lerr := range prog.LoadErrors {
		t.Errorf("load error: %v", lerr)
	}
	findings := Run(prog, analyzers)
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("no want annotations under %s; a golden package must assert at least one true positive", dir)
	}

	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Msg) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re)
		}
	}
}

func TestGoldenCtxPropagation(t *testing.T) {
	runGolden(t, "ctxpropagation", []*Analyzer{CtxPropagation})
}
func TestGoldenLockHold(t *testing.T)   { runGolden(t, "lockhold", []*Analyzer{LockHold}) }
func TestGoldenDroppedErr(t *testing.T) { runGolden(t, "droppederr", []*Analyzer{DroppedErr}) }

// The interprocedural analyzers: each golden module is loaded with
// the full driver, so the call graph is exercised end to end
// (cross-package emitted codes, reverse sink reachability,
// program-wide metric registries).
func TestGoldenVerbConformance(t *testing.T) {
	runGolden(t, "verbconformance", []*Analyzer{VerbConformance})
}
func TestGoldenDeadlineCheck(t *testing.T) {
	runGolden(t, "deadlinecheck", []*Analyzer{DeadlineCheck})
}
func TestGoldenMetricNames(t *testing.T) {
	runGolden(t, "metricnames", []*Analyzer{MetricNames})
}

// TestGoldenSuppression is the suppression round trip: the suppress
// module contains real violations silenced by acelint:ignore (which
// must not surface), an unused suppression and a reason-less one
// (which must surface as [ignore] findings), all asserted by wants.
func TestGoldenSuppression(t *testing.T) { runGolden(t, "suppress", All) }

// TestChecksFireOnlyWhenEnabled pins the gate semantics: with every
// analyzer disabled the golden violations must produce zero findings,
// proving the findings above come from the named check and not from
// driver side effects.
func TestChecksFireOnlyWhenEnabled(t *testing.T) {
	for _, name := range []string{"ctxpropagation", "lockhold", "droppederr",
		"verbconformance", "deadlinecheck", "metricnames"} {
		dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := Load(dir, []string{"./..."})
		if err != nil {
			t.Fatalf("Load(%s): %v", dir, err)
		}
		if got := Run(prog, nil); len(got) != 0 {
			t.Errorf("%s: %d findings with all checks disabled, want 0 (first: %s)", name, len(got), got[0])
		}
	}
}
