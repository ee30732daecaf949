// Command tilebench regenerates every table and figure of the paper's
// evaluation (§5) on the tilesim simulated TILE-Gx chip. Each -fig value
// prints the same series the paper plots; DESIGN.md indexes
// paper-vs-measured values.
//
// Usage:
//
//	tilebench -fig all
//	tilebench -fig 3a -horizon 300000 -runs 3
//
// The figures are sim.Figures — the one list, which `tilebench -h`
// prints the names of. The simulator is deterministic: the same flags
// print the same bytes (testdata/all.golden).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hybsync/harness"
	"hybsync/sim"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values.
func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, f := range sim.Figures(&sim.Lab{}, 0) {
		names = append(names, f.Name)
	}

	fs := flag.NewFlagSet("tilebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "figure to regenerate ("+strings.Join(names, ",")+",all)")
	horizon := fs.Uint64("horizon", 200_000, "simulated cycles per run")
	runs := fs.Int("runs", 3, "runs per data point (seed-perturbed, averaged)")
	maxOps := fs.Int("maxops", 200, "MAX_OPS for the combining algorithms")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *horizon < 1 || *runs < 1 || *maxOps < 1 {
		fmt.Fprintf(stderr, "tilebench: -horizon, -runs and -maxops must be at least 1 (got %d, %d, %d)\n",
			*horizon, *runs, *maxOps)
		return 2
	}

	lab := &sim.Lab{Horizon: *horizon, Runs: *runs}
	known := false
	for _, f := range sim.Figures(lab, *maxOps) {
		if *fig != "all" && f.Name != strings.ToLower(*fig) {
			continue
		}
		known = true
		if err := render(stdout, lab, f); err != nil {
			fmt.Fprintln(stderr, "tilebench:", err)
			return 1
		}
	}
	if !known {
		fmt.Fprintf(stderr, "tilebench: unknown figure %q (have %s, all)\n", *fig, strings.Join(names, ", "))
		return 2
	}
	return 0
}

// render runs f's cells on lab and prints the table.
func render(w io.Writer, lab *sim.Lab, f sim.Figure) error {
	header := []string{f.XLabel}
	for _, col := range f.Cols {
		header = append(header, col.Label)
	}
	t := harness.NewTable(f.Title, header...)
	t.Note = f.Note
	for _, x := range f.X {
		vals, err := f.Row(lab, x)
		if err != nil {
			return err
		}
		row := []any{f.RowLabel(x)}
		for i, v := range vals {
			if f.Cols[i].Int {
				row = append(row, uint64(v))
			} else {
				row = append(row, v)
			}
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}
