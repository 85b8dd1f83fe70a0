// Command experiments regenerates the single-node tables and figures of the
// paper's evaluation section (§5.3). Each experiment times the real engine on
// scaled workloads and prints the same rows/series the paper reports;
// EXPERIMENTS.md records paper-vs-measured and why the other figures are not
// reproduced.
//
// Usage:
//
//	experiments                 # run everything
//	experiments -list           # list experiment ids
//	experiments -run fig14      # one experiment
//	experiments -factor 4       # 4x larger workloads
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vxq/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	list := flag.Bool("list", false, "list experiments and exit")
	only := flag.String("run", "", "run a single experiment by id (e.g. fig14, tab3)")
	factor := flag.Float64("factor", 1, "workload scale factor")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %-11s %s\n", e.ID, e.Paper, e.Title)
		}
		return nil
	}

	settings := bench.Settings{Factor: *factor}
	exps := bench.All()
	if *only != "" {
		e, ok := bench.Lookup(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *only)
		}
		exps = []bench.Experiment{e}
	}
	for _, e := range exps {
		start := time.Now()
		tables, err := e.Run(settings)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("### %s — %s (%s) [%v]\n\n", e.ID, e.Paper, e.Title, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			fmt.Println(t.String())
		}
	}
	return nil
}
