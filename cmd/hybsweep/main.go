// Command hybsweep is the scenario lab, the one native bench CLI: it
// enumerates the grid algo × threads × shards × dist × depth × batch
// (benchfmt.ParseGrid), runs one measurement per defined cell
// (measure.Run — one loop, one conservation check) and streams one
// self-contained JSONL record per cell, measured or failed (panic or
// timeout). A ranked per-scenario summary with algorithm crossover
// points goes to stderr, so stdout redirection yields a clean
// BENCH_sweep.jsonl artifact.
//
// Cells whose axis combination the execution model does not define
// are skipped, not errored and not written: depth>1 cells need the
// scalar uniform counter workload (the depth window has no keyed or
// batched variant), a phase-shifting load drives the blocking scalar
// counter only, and depth>1 with batch>1 is exclusive by construction.
// batch>1 is defined on both objects: ApplyBatch calls on the scalar
// counter, MultiApply calls on a keyed one. The stderr summary counts
// the skipped per reason, so the grid product stays honest — every cell
// was measured, failed, or declined for a named reason.
//
// GOMAXPROCS is deliberately not an axis: it is process-global, so
// one process measures one setting and records it in every line's
// host context. Sweep files from different GOMAXPROCS runs
// concatenate into one artifact (that is how BENCH_sweep.jsonl is
// built).
//
// The axes are benchfmt.Axes — the one table -grid parsing, cell
// enumeration, the failed lines' axis fields and the summary's series
// all derive from; cells run one at a time (concurrent cells would
// timeshare the host and distort each other), each under -cell-timeout.
//
// Exit status: 0 when every defined cell was measured; 1 when a cell
// failed — panicked, lost operations, or timed out (its line carries
// "error") — or the JSONL could not be written; 2 on a usage error (an
// unknown flag, axis or algorithm, threads=0, dist=zipf:3, an unwritable
// -out), reported before any cell runs.
//
// Usage:
//
//	hybsweep > sweep.jsonl
//	hybsweep -grid 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32'
//	GOMAXPROCS=2 hybsweep -grid 'threads=2,4;shards=1,2;dist=uniform,zipf:0.99'
//	hybsweep -dur 50ms -cell-timeout 30s -out sweep.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hybsync/internal/benchfmt"
	"hybsync/internal/measure"
	"hybsync/internal/telemetry/export"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit status as values: 0 when every
// defined cell was measured, 1 when a cell failed (panic, lost
// operations, timeout) or the JSONL could not be written, 2 on a usage
// error — reported before any cell runs.
func run(args []string, stdout, stderr io.Writer) (status int) {
	fs := flag.NewFlagSet("hybsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gridFlag := fs.String("grid", "", "axis overrides, e.g. 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32' (axes: algo, threads, shards, dist, depth, batch)")
	dur := fs.Duration("dur", 100*time.Millisecond, "measurement duration per cell")
	keys := fs.Uint64("keys", 1<<16, "key-space size for keyed (sharded/zipf) cells")
	cellTimeout := fs.Duration("cell-timeout", 60*time.Second, "hard per-cell timeout; a cell exceeding it is recorded as failed, its executor poisoned and its goroutine abandoned")
	out := fs.String("out", "-", "JSONL destination ('-' = stdout)")
	telFlag := fs.Bool("telemetry", true, "arm per-executor telemetry: cell records carry latency_ns/run_len fields (false = disarmed hot path, for overhead-sensitive gating)")
	debugAddr := fs.String("debug-addr", "", "serve /debug/hybsync and /debug/vars on this address (e.g. localhost:6060) for the sweep's duration")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "hybsweep: "+format+"\n", args...)
		return 2
	}

	// Every axis value is vetted here, before any cell runs: numeric
	// axes are positive integers, algos resolve against the registry,
	// dist labels parse as a key distribution or a phase shape.
	points, err := benchfmt.ParseGrid(*gridFlag, func(p benchfmt.Point) error { return measure.Check(p, *keys) })
	if err != nil {
		return usage("-grid: %v", err)
	}
	w := stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return usage("-out: %v", err)
		}
		defer func() {
			if err := f.Close(); err != nil && status == 0 {
				fmt.Fprintf(stderr, "hybsweep: -out: %v\n", err)
				status = 1
			}
		}()
		w = f
	}
	measure.SetTelemetry(*telFlag)
	if *debugAddr != "" {
		addr, err := export.Start(*debugAddr)
		if err != nil {
			return usage("-debug-addr: %v", err)
		}
		fmt.Fprintf(stderr, "hybsweep: telemetry at http://%s/debug/hybsync\n", addr)
	}

	host := benchfmt.CurrentHost()
	start := time.Now()
	var measured []benchfmt.SweepRecord
	skips, failed := map[string]int{}, 0
	for i, p := range points {
		if _, skip := measure.Classify(p); skip != "" {
			skips[skip]++
			continue
		}
		began := time.Now()
		rec, err := measure.Guard(*cellTimeout, func() (benchfmt.Record, error) { return measure.Run(p, *keys, *dur) })
		line := benchfmt.SweepRecord{Host: host, Cell: i, ElapsedMs: float64(time.Since(began).Microseconds()) / 1e3, Record: rec}
		if err != nil {
			// A failed cell still describes itself: its point, no
			// throughput fields.
			line.Error, line.Point = err.Error(), p
			failed++
			fmt.Fprintf(stderr, "hybsweep: cell %d (%s) FAILED: %v\n", i, p, err)
		} else {
			measured = append(measured, line)
		}
		if err := benchfmt.WriteSweep(w, line); err != nil {
			fmt.Fprintf(stderr, "hybsweep: writing JSONL: %v\n", err)
			return 1
		}
	}

	fmt.Fprintf(stderr, "hybsweep: %d cells (GOMAXPROCS=%d): %d measured, %d skipped%s, %d failed in %v\n",
		len(points), host.GoMaxProcs, len(measured), len(points)-len(measured)-failed, reasonCounts(skips), failed, time.Since(start).Round(time.Millisecond))
	summarize(stderr, measured)
	if failed > 0 {
		return 1
	}
	return 0
}

// reasonCounts renders the per-reason skip counts, largest first:
// " (batch-and-depth-exclusive 96, async-over-keyed-unsupported 48)".
func reasonCounts(skips map[string]int) string {
	if len(skips) == 0 {
		return ""
	}
	reasons := make([]string, 0, len(skips))
	for r := range skips {
		reasons = append(reasons, r)
	}
	sort.Slice(reasons, func(i, j int) bool {
		if skips[reasons[i]] != skips[reasons[j]] {
			return skips[reasons[i]] > skips[reasons[j]]
		}
		return reasons[i] < reasons[j]
	})
	for i, r := range reasons {
		reasons[i] = fmt.Sprintf("%s %d", r, skips[r])
	}
	return " (" + strings.Join(reasons, ", ") + ")"
}

// series is a scenario minus the algorithm and thread axes — the unit
// of crossover analysis: the record's point with both blanked.
type series struct {
	bench string
	benchfmt.Point
}

func (s series) String() string { return s.bench + " " + s.Point.String() }

// summarize prints the ranked per-scenario view (every algorithm
// ordered by throughput within each series × thread count, series in
// grid order) and the crossover report (the thread counts at which the
// best algorithm changes — the paper's central claim made visible:
// delegation overtakes locking as contention grows).
func summarize(w io.Writer, recs []benchfmt.SweepRecord) {
	if len(recs) == 0 {
		return
	}
	byThreads := map[series]map[int][]benchfmt.SweepRecord{}
	var order []series
	for _, r := range recs {
		k := series{r.Bench, r.Point}
		k.Algo, k.Threads = "", 0
		if byThreads[k] == nil {
			byThreads[k] = map[int][]benchfmt.SweepRecord{}
			order = append(order, k)
		}
		byThreads[k][r.Threads] = append(byThreads[k][r.Threads], r)
	}

	fmt.Fprintln(w, "ranked by Mops within each scenario:")
	var crossovers []string
	for _, k := range order {
		threads := make([]int, 0, len(byThreads[k]))
		for t := range byThreads[k] {
			threads = append(threads, t)
		}
		sort.Ints(threads)
		var steps []string
		prev := ""
		for _, t := range threads {
			g := byThreads[k][t]
			sort.Slice(g, func(i, j int) bool { return g[i].Mops > g[j].Mops })
			parts := make([]string, len(g))
			for i, r := range g {
				parts[i] = fmt.Sprintf("%s %.2f", r.Algo, r.Mops)
			}
			fmt.Fprintf(w, "  %-56s %s\n", fmt.Sprintf("%s t=%d:", k, t), strings.Join(parts, " > "))
			if best := g[0].Algo; best != prev {
				steps = append(steps, fmt.Sprintf("%s (t=%d)", best, t))
				prev = best
			}
		}
		if len(steps) > 1 {
			crossovers = append(crossovers, fmt.Sprintf("  %-50s %s", k.String()+":", strings.Join(steps, " -> ")))
		}
	}
	fmt.Fprintln(w, "crossovers (best algo by thread count):")
	if len(crossovers) == 0 {
		crossovers = []string{"  (none: one algorithm dominates every series at the measured thread counts)"}
	}
	fmt.Fprintln(w, strings.Join(crossovers, "\n"))
}
