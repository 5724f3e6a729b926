package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmarkSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does (the exclusive method),
// which is what the driver uses. It needs at least two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the
// median; 0 with fewer than two values.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// series collects, per workload and metric, the values of a report's
// untraced runs, and per workload its ops attempted and failed.
type series struct {
	values            map[string]map[string][]float64
	attempted, failed map[string]int64
}

func collect(r report) series {
	s := series{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, run := range r.Runs {
		s.attempted[run.Workload] += run.Attempted
		s.failed[run.Workload] += run.Failed
		if run.Trace != 0 {
			continue
		}
		if s.values[run.Workload] == nil {
			s.values[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.Metrics {
			s.values[run.Workload][name] = append(s.values[run.Workload][name], m.Value)
		}
	}
	return s
}

// verdict classifies the move from base to new of a metric that is
// better in the given direction: worse or better when the medians
// differ by more than bound, unresolved when either side's own spread
// is wider than bound, unchanged otherwise.
func verdict(base, new []float64, better string, bound float64) (string, float64) {
	if len(base) == 0 || len(new) == 0 {
		return "unresolved", 0
	}
	b, n := median(base), median(new)
	r := ratio(n, b)
	if max(spread(base), spread(new)) > bound {
		return "unresolved", r
	}
	worsening := r - 1
	if better == "higher" {
		worsening = 1 - r
	}
	switch {
	case worsening > bound:
		return "worse", r
	case worsening < -bound:
		return "better", r
	}
	return "unchanged", r
}

// compareReports prints one row per end-to-end metric and workload:
// base median, new median, their ratio, the metric's bound, the wider
// of the two sides' spreads, and a verdict; then a row per workload
// for the share of ops that failed.
func compareReports(w io.Writer, specPath, basePath, newPath string) error {
	spec, err := readBenchmarkSpec(specPath)
	if err != nil {
		return err
	}
	baseReport, err := readReport(basePath)
	if err != nil {
		return err
	}
	newReport, err := readReport(newPath)
	if err != nil {
		return err
	}
	base, new := collect(baseReport), collect(newReport)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase\tnew\tnew/base\tbound\tspread\truns\tverdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := base.values[wl.Name][m.Name], new.values[wl.Name][m.Name]
			v, r := verdict(b, n, m.Better, m.Bound)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.2f\t%.3f\t%d+%d\t%s\n",
				wl.Name, m.Name, m.Unit, median(b), median(n), r, m.Bound,
				max(spread(b), spread(n)), len(b), len(n), v)
		}
		bf := ratio(float64(base.failed[wl.Name]), float64(base.attempted[wl.Name]))
		nf := ratio(float64(new.failed[wl.Name]), float64(new.attempted[wl.Name]))
		v := "unchanged"
		switch {
		case nf > bf:
			v = "worse"
		case nf < bf:
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\tratio\t%.4g\t%.4g\t\t0\t\t\t%s\n", wl.Name, bf, nf, v)
	}
	return tw.Flush()
}
