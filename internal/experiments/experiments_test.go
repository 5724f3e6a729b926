package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	// E-series sorted numerically, then the extension X-series. E1, E2
	// and the store/directory extensions are benchmark metrics
	// (EXPERIMENTS.md), not experiments.
	want := []string{"E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "X1", "X2", "X3", "X4", "X5"}
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("position %d: got %s want %s", i, e.ID, want[i])
		}
	}
	if _, ok := Find("e10"); !ok {
		t.Fatal("case-insensitive Find failed")
	}
	if _, ok := Find("E99"); ok {
		t.Fatal("phantom experiment found")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID: "EX", Title: "demo", Source: "Fig 0",
		Columns: []string{"a", "b"},
	}
	tab.AddRow("x", 1.2345)
	tab.AddRow(42, time.Millisecond+time.Microsecond*500)
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	for _, want := range []string{"EX — demo", "Fig 0", "1.23", "42", "1.5ms", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestPercentile(t *testing.T) {
	ds := []time.Duration{5, 1, 4, 2, 3}
	if percentile(ds, 0) != 1 || percentile(ds, 100) != 5 {
		t.Fatal("percentile bounds")
	}
	if percentile(ds, 50) != 3 {
		t.Fatalf("median=%v", percentile(ds, 50))
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty percentile")
	}
}

// TestExperimentsSmoke runs the cheap experiments end to end; the
// expensive ones are exercised by cmd/acebench and the root benches.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are integration-scale")
	}
	for _, id := range []string{"E4", "E7", "E8", "E13", "E14", "E15", "X3", "X4", "X5"} {
		e, ok := Find(id)
		if !ok {
			t.Fatalf("missing %s", id)
		}
		tab, err := e.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

// TestE7ShapeHolds asserts the reproduction's key directional claim:
// resource-aware placement beats random placement.
func TestE7ShapeHolds(t *testing.T) {
	tab, err := RunE7()
	if err != nil {
		t.Fatal(err)
	}
	var random, ll float64
	for _, row := range tab.Rows {
		v, perr := strconv.ParseFloat(row[1], 64)
		if perr != nil {
			t.Fatalf("row %v: %v", row, perr)
		}
		switch row[0] {
		case "random":
			random = v
		case "least_loaded":
			ll = v
		}
	}
	if ll > random {
		t.Fatalf("least_loaded (%.2f) worse than random (%.2f)", ll, random)
	}
}
