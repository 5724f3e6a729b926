// Package experiments regenerates the evaluated figures and claims of
// the ACE report that no benchmark metric covers (E3–E15, X1–X5) as
// measured experiments (see DESIGN.md's experiment index and
// EXPERIMENTS.md for paper-vs-measured). Each experiment
// builds the relevant slice of the system, drives a workload, and
// returns a printable table; cmd/acebench prints them and the root
// bench_test.go wraps the same code paths in testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Table is one experiment's result.
type Table struct {
	ID      string
	Title   string
	Source  string // figure/section the experiment regenerates
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "  (reproduces %s)\n", t.Source)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("  ")
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Experiment is one registered experiment.
type Experiment struct {
	ID   string
	Name string
	Run  func() (*Table, error)
}

var registry []Experiment

func register(id, name string, run func() (*Table, error)) {
	registry = append(registry, Experiment{ID: id, Name: name, Run: run})
}

// All returns every registered experiment sorted by ID: the paper's
// E-series numerically, then the extension X-series.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	key := func(id string) (series byte, n int) {
		if id == "" {
			return 0, 0
		}
		fmt.Sscanf(id[1:], "%d", &n) //nolint:errcheck
		return id[0], n
	}
	sort.Slice(out, func(i, j int) bool {
		si, ni := key(out[i].ID)
		sj, nj := key(out[j].ID)
		if si != sj {
			return si < sj
		}
		return ni < nj
	})
	return out
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range registry {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// timeOp runs fn n times and returns the mean duration per op.
func timeOp(n int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// percentile returns the p-th percentile (0..100) of durations.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p / 100 * float64(len(sorted)-1))
	return sorted[idx]
}
