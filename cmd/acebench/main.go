// Command acebench regenerates the ACE report's evaluated figures and
// claims as measured tables (see DESIGN.md's experiment index and
// EXPERIMENTS.md for the paper-vs-measured record): E3–E15 and the
// extensions X1–X5. What the benchmark measures — E1, E2, the store's
// read spectrum and sharding, the directory's cache — has no table
// here; run bash bench/run.sh.
//
// Usage:
//
//	acebench            # run every experiment
//	acebench E7 E10     # run selected experiments
//	acebench -list      # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ace/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Name)
		}
		return
	}

	selected := experiments.All()
	if args := flag.Args(); len(args) > 0 {
		selected = selected[:0]
		for _, id := range args {
			e, ok := experiments.Find(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "acebench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		fmt.Printf("=== %s: %s\n", e.ID, e.Name)
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s FAILED: %v\n\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(table.String())
		fmt.Printf("  [%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
