// Command tables regenerates the paper's evaluation tables and figures
// on the synthetic stand-in datasets (README "Reproducing the paper's
// tables"): it prints internal/harness's Experiments. Each experiment
// prints one row per measured cell; "(oom)" and "(limit)" cells mark
// runs that exceeded the resource budget or the deadline, mirroring the
// paper's "—" (out of memory) and "×" (did not finish) entries.
//
// Usage:
//
//	tables -table all            # every experiment
//	tables -table 3              # Table 3 only
//	tables -table fig1b -scale 2 # Figure 1b at double scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"peregrine/internal/harness"
)

func main() {
	runners := make(map[string]func(harness.Config) []harness.Row)
	var names []string
	for _, e := range harness.Experiments {
		runners[e.Name] = e.Run
		names = append(names, e.Name)
	}
	table := flag.String("table", "all", "experiments to run, comma-separated: "+strings.Join(names, ", ")+", or all")
	scale := flag.Int("scale", 0, "dataset scale multiplier (default: PEREGRINE_SCALE or 1)")
	threads := flag.Int("threads", 0, "worker threads (default: GOMAXPROCS)")
	budget := flag.Int("budget", 0, "baseline resource budget in embeddings/tuples (default 4M)")
	flag.Parse()

	cfg := harness.Default()
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *threads > 0 {
		cfg.Threads = *threads
	}
	if *budget > 0 {
		cfg.Budget = *budget
	}

	if *table != "all" {
		names = strings.Split(*table, ",")
	}
	for _, name := range names {
		if runners[name] == nil {
			fmt.Fprintf(os.Stderr, "tables: unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	for _, name := range names {
		fmt.Printf("=== experiment %s (scale %d) ===\n", name, cfg.Scale)
		rows := runners[name](cfg)
		harness.SortRows(rows)
		for _, r := range rows {
			fmt.Println(formatRow(r))
		}
		fmt.Println()
	}
}

func formatRow(r harness.Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-12s %-18s %-12s", r.Experiment, r.Dataset, r.App, r.System)
	if r.Failed != "" {
		fmt.Fprintf(&b, " %10s", "("+r.Failed+")")
	} else {
		fmt.Fprintf(&b, " %9.3fs", r.Seconds)
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, " count=%d", r.Count)
	}
	// Deterministic order for extra metrics.
	for _, k := range []string{"explored", "canonicality", "isomorphism", "PO", "Core", "Non-Core", "Other",
		"threads", "speedup", "peakMB", "domainMB", "spreadMs", "min", "max", "goroutines", "heapMB", "allocMBps"} {
		if v, ok := r.Metrics[k]; ok {
			if v >= 1000 {
				fmt.Fprintf(&b, " %s=%.3g", k, v)
			} else {
				fmt.Fprintf(&b, " %s=%.3f", k, v)
			}
		}
	}
	return b.String()
}
