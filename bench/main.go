// Command bench is the ACE benchmark: it stands up in-process ACE
// daemons over loopback TCP, drives one of four named workloads in a
// closed loop, checks every reply, and prints the end-to-end metrics
// (or, traced, the per-layer metrics and a layer budget) as JSON.
// README.md in this directory describes every workload and metric.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload call --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                      # every workload, both modes
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"time"
)

// report is the file format -json appends to and -compare reads.
type report struct {
	Runs []*runRecord `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: call, store_mixed, store_read or directory (default: all four, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed of the workload generators")
		seconds  = flag.Float64("seconds", 15, "length of the measured phase in seconds")
		warmup   = flag.Float64("warmup", 1, "length of the warm-up of each set-up in seconds")
		trace    = flag.Int("trace", 0, "0: report end-to-end metrics; 1: report per-layer metrics, the layer budget and the spans")
		outDir   = flag.String("out", "bench/out", "directory for traces and scratch state")
		jsonOut  = flag.String("json", "", "append this invocation's runs to a report `file`, for -compare")
		compare  = flag.Bool("compare", false, "compare two report files given as arguments: base.json new.json")
		spec     = flag.String("benchmark", "BENCHMARK.json", "benchmark description with the metrics' bounds, for -compare")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two report files: base.json new.json"))
		}
		if err := compareReports(os.Stdout, *spec, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 || *warmup <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("-seconds and -warmup must be positive, -trace 0 or 1"))
	}

	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Duration(*warmup * float64(time.Second)),
		trace:   *trace == 1,
		clients: runtime.GOMAXPROCS(0),
		sizes:   defaultSizes,
		probes:  defaultProbes,
		outDir:  *outDir,
	}
	ctx := context.Background()

	var runs []*runRecord
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		rec, err := runWorkload(ctx, w, o)
		if err != nil {
			fatal(err)
		}
		runs = append(runs, rec)
	} else {
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				o.trace = traced
				rec, err := runWorkload(ctx, w, o)
				if err != nil {
					fatal(err)
				}
				runs = append(runs, rec)
			}
		}
	}

	if *jsonOut != "" {
		if err := appendReport(*jsonOut, runs); err != nil {
			fatal(err)
		}
	}
	correct := true
	for _, rec := range runs {
		if !rec.Correct {
			correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: INCORRECT: %d of %d ops failed: %s\n", rec.Workload, rec.Failed, rec.Attempted, rec.Error)
		}
	}
	if *workload == "" {
		// Every workload: the whole report, for a person to read.
		if err := writeJSON(os.Stdout, report{Runs: runs}, true); err != nil {
			fatal(err)
		}
	} else {
		// One workload: everything on standard error, and the one-line
		// result the driver reads as the last line of standard output.
		if err := writeJSON(os.Stderr, runs[0], true); err != nil {
			fatal(err)
		}
		line := struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{runs[0].Correct, runs[0].Attempted, runs[0].Failed, runs[0].Metrics}
		if err := writeJSON(os.Stdout, line, false); err != nil {
			fatal(err)
		}
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func writeJSON(f *os.File, v any, indent bool) error {
	enc := json.NewEncoder(f)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

func readReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// appendReport adds runs to the report in path, creating it if absent,
// so that two reports can be filled by alternating invocations.
func appendReport(path string, runs []*runRecord) error {
	r, err := readReport(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	r.Runs = append(r.Runs, runs...)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encode report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write report: %w", err)
	}
	return nil
}
