// Command hybsweep is the scenario lab, the one native bench CLI: it
// enumerates the grid algo × threads × shards × dist × depth × batch,
// runs one measurement per defined cell (measure.Run — one loop, one
// conservation check) and streams one self-contained JSONL record per
// cell, measured or failed (panic or timeout). A ranked per-scenario
// summary with algorithm crossover points goes to stderr, so stdout
// redirection yields a clean BENCH_sweep.jsonl artifact.
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
// Usage:
//
//	hybsweep > sweep.jsonl
//	hybsweep -grid 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32'
//	GOMAXPROCS=2 hybsweep -grid 'threads=2,4;shards=1,2;dist=uniform,zipf:0.99'
//	hybsweep -dur 50ms -workers 1 -cell-timeout 30s -out sweep.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/benchfmt"
	"hybsync/internal/measure"
	"hybsync/internal/sweep"
	"hybsync/internal/telemetry/export"
)

// The grid axes in enumeration order. Defaults keep the product small
// enough for a casual run; -grid overrides any subset.
func defaultGrid() (*sweep.Grid, error) {
	return sweep.New(
		sweep.Axis{Name: "algo", Values: []string{"mpserver", "hybcomb", "shmserver", "ccsynch", "mcs-lock"}},
		sweep.Axis{Name: "threads", Values: []string{"1", "2"}},
		sweep.Axis{Name: "shards", Values: []string{"1"}},
		sweep.Axis{Name: "dist", Values: []string{"uniform"}},
		sweep.Axis{Name: "depth", Values: []string{"1"}},
		sweep.Axis{Name: "batch", Values: []string{"1"}},
	)
}

// decode reads one grid cell's bindings into the measurement cell.
func decode(c sweep.Cell, keys uint64) (measure.Cell, error) {
	m := measure.Cell{Algo: c.Get("algo"), Dist: c.Get("dist"), Keys: keys}
	var err error
	for _, axis := range []struct {
		name string
		dst  *int
	}{{"threads", &m.Threads}, {"shards", &m.Shards}, {"depth", &m.Depth}, {"batch", &m.Batch}} {
		if *axis.dst, err = c.Int(axis.name); err != nil {
			return m, err
		}
	}
	return m, nil
}

func main() {
	gridFlag := flag.String("grid", "", "axis overrides, e.g. 'algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32' (axes: algo, threads, shards, dist, depth, batch)")
	dur := flag.Duration("dur", 100*time.Millisecond, "measurement duration per cell")
	keys := flag.Uint64("keys", 1<<16, "key-space size for keyed (sharded/zipf) cells")
	workers := flag.Int("workers", 1, "worker-pool size; >1 runs cells concurrently, which distorts throughput numbers — use for exploratory sweeps only")
	cellTimeout := flag.Duration("cell-timeout", 60*time.Second, "hard per-cell timeout; a cell exceeding it is recorded as failed and its goroutine abandoned")
	out := flag.String("out", "-", "JSONL destination ('-' = stdout)")
	telFlag := flag.Bool("telemetry", true, "arm per-executor telemetry: cell records carry latency_ns/run_len fields (false = disarmed hot path, for overhead-sensitive gating)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/hybsync and /debug/vars on this address (e.g. localhost:6060) for the sweep's duration")
	flag.Parse()

	measure.SetTelemetry(*telFlag)
	if *debugAddr != "" {
		addr, err := export.Start(*debugAddr)
		if err != nil {
			fatalf("-debug-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "hybsweep: telemetry at http://%s/debug/hybsync\n", addr)
	}

	grid, err := defaultGrid()
	if err != nil {
		fatalf("%v", err)
	}
	if *gridFlag != "" {
		if err := grid.ParseOverrides(*gridFlag); err != nil {
			fatalf("-grid: %v", err)
		}
	}

	// Validate every axis value before any cell runs: numeric axes
	// parse as positive ints, algos resolve against the registry, and
	// dist labels parse as a key distribution or a phase shape.
	for _, axis := range []string{"threads", "shards", "depth", "batch"} {
		if _, err := grid.IntAxis(axis); err != nil {
			fatalf("-grid: %v", err)
		}
	}
	registered := make(map[string]bool)
	for _, name := range hybsync.Algorithms() {
		registered[name] = true
	}
	algoValues, _ := grid.Values("algo")
	for _, name := range algoValues {
		if !registered[name] {
			fatalf("-grid: unknown algorithm %q (have: %s)", name, strings.Join(hybsync.Algorithms(), ", "))
		}
	}
	distValues, _ := grid.Values("dist")
	for _, label := range distValues {
		var err error
		if harness.IsPhaseSpec(label) {
			_, err = harness.ParsePhases(label)
		} else {
			_, err = harness.ParseDist(label, *keys)
		}
		if err != nil {
			fatalf("-grid: dist %q: %v", label, err)
		}
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	jsonl := sweep.NewJSONLWriter(w)
	host := benchfmt.CurrentHost()

	cells := grid.Cells()
	specs := make([]measure.Cell, len(cells)) // by Cell.Index
	for i, c := range cells {
		if specs[i], err = decode(c, *keys); err != nil {
			fatalf("-grid: %v", err)
		}
	}

	runner := &sweep.Runner{
		Workers: *workers,
		Timeout: *cellTimeout,
		// A timed-out cell's goroutine is abandoned, but the executor it
		// was driving must not wedge forever: poisoning every live
		// tracked executor completes the abandoned cell's waiters with
		// ErrPoisoned and lets its server goroutines drain and exit.
		// (With Workers > 1 this also condemns concurrently-running
		// cells — their records fail loudly rather than silently skew.)
		OnTimeout: func(c sweep.Cell) {
			if n := measure.PoisonLive(fmt.Sprintf("hybsweep: cell %s exceeded -cell-timeout", c)); n > 0 {
				fmt.Fprintf(os.Stderr, "hybsweep: cell %s timed out; poisoned %d live executor(s)\n", c, n)
			}
		},
		Check: func(c sweep.Cell) string {
			_, skip := specs[c.Index].Classify()
			return skip
		},
		Run: func(c sweep.Cell) (any, error) { return measure.Run(specs[c.Index], *dur) },
	}

	start := time.Now()
	var measuredRecs []benchfmt.SweepRecord
	skips := map[string]int{}
	var writeErr error
	measured, skipped, failed := runner.Sweep(cells, func(res sweep.Result) {
		if res.Skip != "" {
			skips[res.Skip]++
			return
		}
		rec := benchfmt.SweepRecord{
			SchemaVersion: benchfmt.SchemaVersion,
			Host:          host,
			Cell:          res.Cell.Index,
			ElapsedMs:     float64(res.Elapsed.Microseconds()) / 1e3,
		}
		if res.Err != nil {
			// A failed cell still describes itself: axis fields from the
			// cell, no throughput fields.
			rec.Error = res.Err.Error()
			m := specs[res.Cell.Index]
			rec.Algo, rec.Threads = m.Algo, m.Threads
			rec.Shards, rec.Dist, rec.Depth, rec.Batch = m.Shards, m.Dist, m.Depth, m.Batch
			fmt.Fprintf(os.Stderr, "hybsweep: cell %d (%s) FAILED: %v\n", res.Cell.Index, res.Cell, res.Err)
		} else {
			rec.Record = res.Value.(benchfmt.Record)
			measuredRecs = append(measuredRecs, rec)
		}
		if err := jsonl.Write(rec); err != nil && writeErr == nil {
			writeErr = err
		}
	})
	if writeErr != nil {
		fatalf("writing JSONL: %v", writeErr)
	}
	if err := jsonl.Flush(); err != nil {
		fatalf("flushing JSONL: %v", err)
	}

	fmt.Fprintf(os.Stderr, "hybsweep: %d cells (GOMAXPROCS=%d): %d measured, %d skipped%s, %d failed in %v\n",
		len(cells), host.GoMaxProcs, measured, skipped, reasonCounts(skips), failed, time.Since(start).Round(time.Millisecond))
	summarize(os.Stderr, measuredRecs)
	if failed > 0 {
		os.Exit(1)
	}
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

// series is a scenario minus the thread axis — the unit of crossover
// analysis.
type series struct {
	bench  string
	shards int
	dist   string
	depth  int
	batch  int
}

func (s series) String() string {
	return fmt.Sprintf("%s s=%d %s d=%d b=%d", s.bench, s.shards, s.dist, s.depth, s.batch)
}

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
		k := series{r.Bench, r.Shards, r.Dist, r.Depth, r.Batch}
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
			fmt.Fprintf(w, "  %-40s %s\n", fmt.Sprintf("%s t=%d:", k, t), strings.Join(parts, " > "))
			if best := g[0].Algo; best != prev {
				steps = append(steps, fmt.Sprintf("%s (t=%d)", best, t))
				prev = best
			}
		}
		if len(steps) > 1 {
			crossovers = append(crossovers, fmt.Sprintf("  %-32s %s", k.String()+":", strings.Join(steps, " -> ")))
		}
	}
	fmt.Fprintln(w, "crossovers (best algo by thread count):")
	if len(crossovers) == 0 {
		crossovers = []string{"  (none: one algorithm dominates every series at the measured thread counts)"}
	}
	fmt.Fprintln(w, strings.Join(crossovers, "\n"))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "hybsweep: "+format+"\n", args...)
	os.Exit(1)
}
