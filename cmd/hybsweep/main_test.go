package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybsync/internal/benchfmt"
)

// sweep runs the command in-process and returns its exit status, the
// lines it wrote to -out, and stderr.
func sweep(t *testing.T, args ...string) (status int, lines []benchfmt.SweepRecord, stderr string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "sweep.jsonl")
	var stdout, errs bytes.Buffer
	status = run(append([]string{"-out", out}, args...), &stdout, &errs)
	if stdout.Len() != 0 {
		t.Errorf("-out given, yet stdout got %q", stdout.String())
	}
	if f, err := os.Open(out); err == nil {
		defer f.Close()
		if lines, err = benchfmt.ReadSweep(f); err != nil {
			t.Fatalf("-out is not sweep JSONL: %v", err)
		}
	}
	return status, lines, errs.String()
}

// The verify-skill grid touches every loop body measure.Run has. Every
// cell is accounted for — measured, or skipped for a named reason and
// never run or written — and every line carries its whole point, in
// cell order.
func TestVerifyGrid(t *testing.T) {
	const grid = "algo=mpserver,hybrid;threads=1,2;shards=1,2;dist=uniform,zipf:0.99,phase:5ms:0.5;depth=1,4;batch=1,8"
	status, lines, stderr := sweep(t, "-dur", "5ms", "-grid", grid)
	if status != 0 {
		t.Fatalf("exit %d:\n%s", status, stderr)
	}
	for _, want := range []string{
		"96 cells", "40 measured, 56 skipped (", "batch-and-depth-exclusive 16", "phases-over-async-unsupported 16",
		"async-over-keyed-unsupported 12", "phases-over-batch-unsupported 8", "phases-over-sharded-unsupported 4",
		"), 0 failed", "ranked by Mops within each scenario:", "crossovers (best algo by thread count):",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("summary lacks %q:\n%s", want, stderr)
		}
	}
	if len(lines) != 40 {
		t.Fatalf("wrote %d lines, want 40", len(lines))
	}
	points, err := benchfmt.ParseGrid(grid, nil)
	if err != nil {
		t.Fatal(err)
	}
	benches, last := map[string]bool{}, -1
	for _, l := range lines {
		if l.Error != "" || l.Ops == 0 || l.SchemaVersion != benchfmt.SchemaVersion || l.GoMaxProcs == 0 {
			t.Errorf("not a measured line: %+v", l)
		}
		if l.Cell <= last || l.Cell >= len(points) || l.Point != points[l.Cell] {
			t.Fatalf("cell %d (after %d) carries %s, the grid's is %s", l.Cell, last, l.Point, points[l.Cell])
		}
		for _, a := range benchfmt.Axes {
			if a.Get(l.Point) == "" {
				t.Errorf("cell %d has no %s", l.Cell, a.Name)
			}
		}
		last = l.Cell
		benches[l.Bench] = true
	}
	if len(benches) != 5 {
		t.Errorf("benches reached: %v, want counter, async, batch, sharded, phases", benches)
	}
}

// A usage error exits 2, names the offending value and runs nothing.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-grid", "bogus=1"}, `unknown axis "bogus"`},
		{[]string{"-grid", "algo=mpserver,nope"}, `unknown algorithm "nope"`},
		{[]string{"-grid", "threads=0"}, `value "0"`},
		{[]string{"-grid", "dist=zipf:3"}, `dist "zipf:3"`},
		{[]string{"-grid", "dist=phase:0s:0.5"}, `dist "phase:0s:0.5"`},
		{[]string{"-grid", "depth"}, `bad grid clause "depth"`},
		{[]string{"-keys", "0"}, "key space must be positive"},
		{[]string{"-workers", "2"}, "flag provided but not defined: -workers"},
		{[]string{"-out", filepath.Join(t.TempDir(), "no-such-dir", "x.jsonl")}, "no-such-dir"},
	} {
		status, lines, stderr := sweep(t, tc.args...)
		if status != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 naming %q", tc.args, status, stderr, tc.want)
		}
		if len(lines) != 0 || strings.Contains(stderr, "measured") {
			t.Errorf("%v: cells ran before the usage error: %d lines, stderr %q", tc.args, len(lines), stderr)
		}
	}
	var stdout, stderr bytes.Buffer
	if status := run([]string{"-h"}, &stdout, &stderr); status != 0 {
		t.Errorf("-h exits %d", status)
	}
	for _, name := range []string{"-grid", "-dur", "-keys", "-cell-timeout", "-out", "-telemetry", "-debug-addr"} {
		if !strings.Contains(stderr.String(), "\n  "+name+" ") && !strings.Contains(stderr.String(), "\n  "+name+"\n") {
			t.Errorf("-h does not list %s", name)
		}
	}
	if n := strings.Count(stderr.String(), "\n  -"); n != 7 {
		t.Errorf("-h lists %d flags, want 7:\n%s", n, stderr.String())
	}
}

// A cell that outlives -cell-timeout is a failed line that still
// describes itself, and the sweep exits 1 — after running the cells
// behind it.
func TestTimedOutCellExits1(t *testing.T) {
	before := runtime.NumGoroutine()
	status, lines, stderr := sweep(t, "-cell-timeout", "1ms", "-dur", "200ms", "-grid", "algo=mpserver,hybcomb;threads=1")
	if status != 1 {
		t.Fatalf("exit %d, want 1:\n%s", status, stderr)
	}
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want both cells:\n%s", len(lines), stderr)
	}
	want := benchfmt.Point{Algo: "mpserver", Threads: 1, Shards: 1, Dist: "uniform", Depth: 1, Batch: 1}
	if l := lines[0]; !strings.Contains(l.Error, "timed out after 1ms") || l.Point != want || l.Cell != 0 || l.Ops != 0 || l.Bench != "" {
		t.Errorf("failed line: %+v", l)
	}
	if !strings.Contains(stderr, "cell 0 ("+want.String()+") FAILED") || !strings.Contains(stderr, "2 failed") {
		t.Errorf("stderr: %s", stderr)
	}
	settle(t, before)
}

// An abandoned async or sharded cell's workers meet its poisoned
// construction in Submit, NewHandle, Inc or IncAll. They stop quietly:
// the sweep exits 1 with one failed line per cell, and the process
// outlives the abandoned workers instead of dying in their panic.
func TestTimedOutAsyncAndShardedCells(t *testing.T) {
	for _, grid := range []string{"algo=mpserver;threads=1;depth=4", "algo=hybcomb;threads=2;shards=4"} {
		before := runtime.NumGoroutine()
		status, lines, stderr := sweep(t, "-cell-timeout", "1ms", "-dur", "200ms", "-grid", grid)
		if status != 1 {
			t.Errorf("%s: exit %d, want 1:\n%s", grid, status, stderr)
		}
		if len(lines) != 1 || !strings.Contains(lines[0].Error, "timed out after 1ms") {
			t.Errorf("%s: want one failed line, got %+v", grid, lines)
		}
		settle(t, before)
	}
}

// settle waits until the goroutines a sweep's abandoned cells left
// behind have ended — their workers run out -dur against the condemned
// construction — so that a worker that panics does so inside the test
// that abandoned it. before is the count ahead of the sweep.
func settle(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running 10s after the sweep, %d before it", runtime.NumGoroutine(), before)
		}
	}
}
