package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"ace/internal/cmdlang"
)

// smokeOptions runs a workload for a quarter of a second on a working
// set small enough to set up in milliseconds.
func smokeOptions(t *testing.T, traced bool) options {
	return options{
		seed:    1,
		seconds: 250 * time.Millisecond,
		warmup:  50 * time.Millisecond,
		trace:   traced,
		clients: 2,
		sizes:   sizes{keys: 256, services: 64},
		probes:  probeSizes{fast: 200, calls: 100, slow: 20},
		outDir:  t.TempDir(),
	}
}

// TestWorkloadsSmoke runs every workload in both modes and checks that
// each reports, correct and non-zero where it must be, every metric
// the mode owes.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runWorkload(context.Background(), w, smokeOptions(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %s",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Error)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d declared", w.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.name, traced, d.name, m.Unit, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if rec.Budget == nil || len(rec.Budget.Classes) != len(w.classes) {
					t.Fatalf("%s: traced run has no budget for each of its %d op classes", w.name, len(w.classes))
				}
				for class, b := range rec.Budget.Classes {
					if got := b.SumUS + b.UnattributedUS; b.Ops > 0 && (got < b.P50US-1e-6 || got > b.P50US+1e-6) {
						t.Errorf("%s/%s: parts %.3f + unattributed %.3f != untraced p50 %.3f", w.name, class, b.SumUS, b.UnattributedUS, b.P50US)
					}
				}
				if _, err := os.Stat(rec.TraceFile); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the tables the
// program reports from, and against the limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented, 2 to 8 allowed", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported, 1 to %d allowed", kind, len(got), len(want), limit)
			return
		}
		for i, m := range got {
			if !name.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if d := want[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("%s: metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: metric %s: bound missing, unexpected or outside (0, 0.25]", kind, m.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, 16, true)
	check("per_layer", spec.PerLayer, perLayer, 128, false)
	if !slices.ContainsFunc(spec.EndToEnd, func(m metric) bool {
		return m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}) {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1 to 60", spec.RunSeconds)
	}
	if !slices.Equal(spec.Paths, []string{"bench"}) || !slices.Equal(spec.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v, command %v: want [bench] and [bash bench/run.sh]", spec.Paths, spec.Command)
	}
}

// TestGeneratorsDeterministic checks that a seed fixes each workload's
// op stream, and that another seed changes it.
func TestGeneratorsDeterministic(t *testing.T) {
	const n = 10000
	cfg := func(seed int64) runConfig {
		return runConfig{seed: seed, clients: 2, sizes: defaultSizes}
	}
	streams := map[string]func(seed int64) []any{
		"call": func(seed int64) []any {
			g := newCallGen(seed)
			out := make([]any, n)
			for i := range out {
				out[i] = g.next()
			}
			return out
		},
		"store_mixed": func(seed int64) []any {
			g := storeGen(cfg(seed), 1, 0.5)
			out := make([]any, n)
			for i := range out {
				out[i] = g.Next()
			}
			return out
		},
		"store_read": func(seed int64) []any {
			g := storeGen(cfg(seed), 1, 0.95)
			out := make([]any, n)
			for i := range out {
				out[i] = g.Next()
			}
			return out
		},
		"directory": func(seed int64) []any {
			g, err := newDirGen(cfg(seed), 1)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]any, n)
			for i := range out {
				class, idx := g.pick()
				out[i] = [2]int{class, idx}
			}
			return out
		},
	}
	for _, w := range workloads {
		stream, ok := streams[w.name]
		if !ok {
			t.Errorf("%s: no generator under test", w.name)
			continue
		}
		if !slices.Equal(stream(7), stream(7)) {
			t.Errorf("%s: the same seed gave two different op streams", w.name)
		}
		if slices.Equal(stream(7), stream(8)) {
			t.Errorf("%s: two seeds gave the same op stream", w.name)
		}
	}
}

// TestCheckersReject feeds each correctness check an answer that is
// wrong in one way.
func TestCheckersReject(t *testing.T) {
	good := make([]byte, valueLen)
	encodeValue(good, 42, 1, 7)
	if err := checkRead(good, 3, true, 42, 3); err != nil {
		t.Fatalf("a correct read was rejected: %v", err)
	}
	flipped := slices.Clone(good)
	flipped[100] ^= 1
	for what, err := range map[string]error{
		"a corrupted value":            checkRead(flipped, 3, true, 42, 3),
		"another key's value":          checkRead(good, 3, true, 41, 3),
		"a truncated value":            checkRead(good[:100], 3, true, 42, 3),
		"a regressed version":          checkRead(good, 2, true, 42, 3),
		"a preloaded key gone missing": checkRead(nil, 0, false, 42, 1),
		"a stale directory address":    checkResolve("svc0001", serviceAddr(1, 0), serviceAddr(1, 1)),
		"a failed call":                checkCallReply(cmdlang.New("move"), cmdlang.Fail(cmdlang.CodeNotFound, "no")),
	} {
		if err == nil {
			t.Errorf("%s was accepted", what)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(v, n=4) returns, which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// TestTailPercentile pins the rule that a tail percentile needs ten
// samples beyond it.
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5000: 99, 1000: 99, 999: 95, 200: 95, 199: 90, 100: 90, 99: 75, 40: 75, 39: 50, 0: 50} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		new    []float64
		better string
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, "lower", "unchanged"},
		{[]float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{[]float64{120, 121, 119, 120, 120}, "higher", "better"},
		{[]float64{80, 81, 79, 80, 80}, "lower", "better"},
		{[]float64{60, 140, 100, 90, 120}, "lower", "unresolved"},
	} {
		if got, _ := verdict(steady, c.new, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.new, c.better, got, c.want)
		}
	}
}
