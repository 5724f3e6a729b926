package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestDriverToleratesTypeErrors loads a multi-package tree where one
// package fails to type-check (and another imports it): the load must
// not panic or abort, the type error must be reported, and findings
// from healthy packages must still surface.
func TestDriverToleratesTypeErrors(t *testing.T) {
	dir, err := filepath.Abs(filepath.Join("testdata", "src", "broken"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, []string{"./..."})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	if len(prog.LoadErrors) == 0 {
		t.Fatal("expected type errors from the broken package, got none")
	}
	sawUndefined := false
	for _, e := range prog.LoadErrors {
		if strings.Contains(e.Error(), "undefinedIdentifier") {
			sawUndefined = true
		}
	}
	if !sawUndefined {
		t.Errorf("no load error mentions undefinedIdentifier; got: %v", prog.LoadErrors)
	}

	if len(prog.Packages) < 3 {
		t.Errorf("expected all 3 packages to load for analysis, got %d", len(prog.Packages))
	}

	findings := Run(prog, All)
	sawLockHold := false
	for _, f := range findings {
		if f.Check == "lockhold" && strings.Contains(f.Msg, "time.Sleep") {
			sawLockHold = true
		}
	}
	if !sawLockHold {
		t.Errorf("healthy package's lockhold finding missing; findings: %v", findings)
	}
}

// TestLoadRejectsNonsense pins the two hard failure modes: a
// directory outside any module and a pattern matching nothing.
func TestLoadRejectsNonsense(t *testing.T) {
	if _, err := Load("/", []string{"./..."}); err == nil {
		t.Error("Load outside a module: expected error")
	}
	if _, err := Load(".", []string{"./no/such/dir/..."}); err == nil {
		t.Error("Load with empty match: expected error")
	}
}

// TestByName covers check-list resolution for the -checks flag.
func TestByName(t *testing.T) {
	got, err := ByName("metricnames, lockhold")
	if err != nil || len(got) != 2 || got[0].Name != "metricnames" || got[1].Name != "lockhold" {
		t.Errorf("ByName: got %v, %v", got, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("ByName(nosuch): expected error")
	}
}
