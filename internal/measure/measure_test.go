package measure

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"hybsync"
	"hybsync/internal/benchfmt"
)

// Cell is the grid point; keys sizes every test's key space.
type Cell = benchfmt.Point

const keys = 1024

// one builds the scalar-uniform cell of algo at th threads; tests
// override the axis under test.
func one(algo string, th int) Cell {
	return Cell{Algo: algo, Threads: th, Shards: 1, Dist: "uniform", Depth: 1, Batch: 1}
}

// TestRun drives every bench kind over every registered algorithm for
// a few milliseconds. Run itself enforces the conservation oracle
// (object state == operations counted) on every kind and fails the
// cell otherwise, so a nil error here is that check passing; the table
// adds what each kind must stamp on its record.
func TestRun(t *testing.T) {
	kinds := []struct {
		name, bench string
		set         func(*Cell)
	}{
		{"counter", "counter", func(*Cell) {}},
		{"async", "async", func(c *Cell) { c.Depth = 4 }},
		{"batch", "batch", func(c *Cell) { c.Batch = 8 }},
		{"sharded", "sharded", func(c *Cell) { c.Shards, c.Dist = 2, "zipf:0.99" }},
		{"sharded-batch", "sharded", func(c *Cell) { c.Shards, c.Dist, c.Batch = 2, "zipf:0.99", 8 }},
		{"phases", "phases", func(c *Cell) { c.Dist = "phase:2ms:0.5" }},
	}
	for _, k := range kinds {
		for _, algo := range hybsync.Algorithms() {
			c := one(algo, 2)
			k.set(&c)
			t.Run(k.name+"/"+algo, func(t *testing.T) {
				rec, err := Run(c, keys, 5*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				// One identity per point: the point itself, every axis, is on
				// the record as returned, whatever the kind.
				if rec.Bench != k.bench || rec.Point != c {
					t.Fatalf("identity: %+v", rec)
				}
				if rec.Ops == 0 || rec.Mops <= 0 || rec.NsPerOp <= 0 || rec.Fairness <= 0 {
					t.Fatalf("no throughput in %+v", rec)
				}
				// Latency is sampled one blocking call in 16 per recorder
				// (one per thread and shard): a slow cell may finish
				// before any recorder reaches its first sample.
				recorders := uint64(c.Threads * c.Shards)
				if rec.RunLen == nil || (rec.Lat == nil && rec.Ops/uint64(c.Batch) >= 16*recorders) {
					t.Fatalf("armed run carries no telemetry: %+v", rec)
				}
				if c.Batch > 1 {
					// Stats honesty: operation-scaled throughput, and no
					// combiner counters (their unit is ill-defined for
					// batched submissions).
					if rec.Ops%8 != 0 || rec.Rounds != 0 || rec.Combined != 0 {
						t.Fatalf("batch record %+v", rec)
					}
				}
				switch k.bench {
				case "sharded":
					if len(rec.ShardOps) != 2 || rec.ShardFairness == nil {
						t.Fatalf("no shard profile in %+v", rec)
					}
				case "counter":
					// The scalar identity of core.StatsSource, wherever the
					// construction keeps the counters at all.
					if rec.Rounds+rec.Combined != 0 && rec.Rounds+rec.Combined != rec.Ops {
						t.Fatalf("rounds+combined != ops: %d+%d != %d", rec.Rounds, rec.Combined, rec.Ops)
					}
				case "async":
					// A deferring handle's window is one round of many own
					// operations: the batch case, and as silent.
					defers := strings.HasSuffix(algo, "-lock") || algo == "hybrid" || algo == "hybcomb" || algo == "ccsynch"
					if defers && rec.Rounds+rec.Combined != 0 {
						t.Fatalf("deferring async record carries rounds/combined: %+v", rec)
					}
				}
				if (algo == "mpserver" || algo == "mcs-lock") && k.bench == "async" && rec.Pipe == nil {
					t.Fatalf("%s async record has no pipeline stats: %+v", algo, rec)
				}
				if algo == "hybrid" && k.bench != "sharded" && rec.Adapt == nil {
					t.Fatalf("hybrid record has no transition counts: %+v", rec)
				}
			})
		}
	}
}

func TestRunRejects(t *testing.T) {
	bad := one("no-such-algo", 1)
	if _, err := Run(bad, keys, time.Millisecond); err == nil {
		t.Error("unknown algo accepted")
	}
	if err := Check(Cell{Algo: bad.Algo}, keys); err == nil || !strings.Contains(err.Error(), bad.Algo) {
		t.Errorf("Check(unknown algo) = %v, want an error naming it", err)
	}
	// Check vets only what is set: a blank point and a whole valid one pass.
	for _, ok := range []Cell{{}, one("mpserver", 1), {Dist: "zipf:0.99"}, {Dist: "phase:5ms:0.5"}} {
		if err := Check(ok, keys); err != nil {
			t.Errorf("Check(%+v) = %v", ok, err)
		}
	}
	undefined := one("mpserver", 1)
	undefined.Depth, undefined.Batch = 4, 8
	if _, err := Run(undefined, keys, time.Millisecond); err == nil {
		t.Error("undefined cell measured")
	}
	for _, dist := range []string{"zipf:2", "pareto", "phase:0s:0.5"} {
		c := one("mpserver", 1)
		c.Dist = dist
		if _, err := Run(c, keys, time.Millisecond); err == nil {
			t.Errorf("dist %q accepted", dist)
		}
		if err := Check(Cell{Dist: dist}, keys); err == nil || !strings.Contains(err.Error(), dist) {
			t.Errorf("Check(dist %q) = %v, want an error naming it", dist, err)
		}
	}
}

func TestDisarmed(t *testing.T) {
	SetTelemetry(false)
	defer SetTelemetry(true)
	rec, err := Run(one("hybcomb", 1), keys, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Lat != nil || rec.RunLen != nil {
		t.Fatalf("disarmed run carries telemetry: %+v", rec)
	}
}

// Regression test for the first bug the hybsweep grid surfaced: at
// gomaxprocs=2, ccsynch, threads>gomaxprocs, depth=8, the depth-window
// loop deadlocked intermittently (~2 in 3 runs) because workers exited
// the measurement loop with unwaited cells and the handle Flush only
// ran after every worker returned — while a stopping worker's unwaited
// cell held the combiner duty that a still-running worker's Wait was
// spinning on. The fix drained each handle inside its own worker
// goroutine (harness.RunNativeDrain). A CC-Synch handle now publishes
// its window only when a completion is demanded and spins on that one
// cell at once, so no cell is left holding the duty; this test still
// replays the failing cell repeatedly under a watchdog.
func TestAsyncDrainLiveness(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	c := one("ccsynch", 4)
	c.Depth = 8
	for i := 0; i < 6; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := Run(c, keys, 30*time.Millisecond)
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d: async ccsynch drain deadlocked (goroutine leaked)", i)
		}
	}
}

// Every skip reason is reachable and every defined corner maps to its
// kind. d/b/s are depth, batch, shards.
func TestClassify(t *testing.T) {
	cases := []struct {
		d, b, s int
		dist    string
		bench   string
		skip    string
	}{
		{1, 1, 1, "uniform", "counter", ""},
		{4, 1, 1, "uniform", "async", ""},
		{1, 8, 1, "uniform", "batch", ""},
		{1, 1, 4, "uniform", "sharded", ""},
		{1, 1, 1, "zipf:0.99", "sharded", ""},
		{1, 1, 4, "zipf:0.99", "sharded", ""},
		{1, 1, 1, "phase:5ms:0.5", "phases", ""},
		{4, 8, 1, "uniform", "", skipBatchDepth},
		{4, 8, 4, "zipf:0.99", "", skipBatchDepth},
		{4, 1, 4, "uniform", "", skipAsyncKeyed},
		{4, 1, 1, "zipf:0.99", "", skipAsyncKeyed},
		{1, 8, 4, "uniform", "sharded", ""},
		{1, 8, 1, "zipf:0.99", "sharded", ""},
		{4, 1, 1, "phase:5ms:0.5", "", skipPhaseAsync},
		{4, 8, 4, "phase:5ms:0.5", "", skipPhaseAsync},
		{1, 8, 1, "phase:5ms:0.5", "", skipPhaseBatch},
		{1, 1, 4, "phase:5ms:0.5", "", skipPhaseShards},
	}
	reached := map[string]bool{}
	for _, tc := range cases {
		c := Cell{Algo: "mpserver", Threads: 1, Shards: tc.s, Dist: tc.dist, Depth: tc.d, Batch: tc.b}
		bench, skip := Classify(c)
		if bench != tc.bench || skip != tc.skip {
			t.Errorf("Classify(%+v) = (%q, %q), want (%q, %q)", c, bench, skip, tc.bench, tc.skip)
		}
		reached[skip] = true
	}
	for _, reason := range []string{skipBatchDepth, skipAsyncKeyed, skipPhaseAsync, skipPhaseBatch, skipPhaseShards} {
		if !reached[reason] {
			t.Errorf("skip reason %q not covered", reason)
		}
	}
}

// A panic inside a cell comes back as that cell's error, stack
// attached, and an ordinary error passes through untouched.
func TestGuardPanicRecovery(t *testing.T) {
	_, err := Guard(time.Minute, func() (benchfmt.Record, error) { panic("construction broke an invariant") })
	if err == nil || !strings.Contains(err.Error(), "panic: construction broke an invariant") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("panic error = %v", err)
	}
	rec, err := Guard(0, func() (benchfmt.Record, error) { return benchfmt.Record{Ops: 7}, nil })
	if err != nil || rec.Ops != 7 {
		t.Fatalf("after a panicking cell: rec=%+v err=%v", rec, err)
	}
}

func TestGuardRunError(t *testing.T) {
	boom := errors.New("boom")
	if _, err := Guard(time.Minute, func() (benchfmt.Record, error) { return benchfmt.Record{}, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// wedged is a tracked cell that never finishes on its own.
type wedged struct{ poisoned chan any }

func (w *wedged) Poison(v any) { w.poisoned <- v }

// A cell that outlives the timeout fails, what it was driving is
// poisoned, and the next cell runs normally while the abandoned one is
// still there — then takes the live slot over from it.
func TestGuardTimeout(t *testing.T) {
	cell := &wedged{poisoned: make(chan any, 1)}
	release, exited := make(chan struct{}), make(chan struct{})
	_, err := Guard(20*time.Millisecond, func() (benchfmt.Record, error) {
		defer close(exited)
		defer track(cell, "test/wedged", nil)()
		<-release // wedged until the test lets go
		return benchfmt.Record{}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "timed out after 20ms") {
		t.Fatalf("timeout error = %v", err)
	}
	select {
	case <-cell.poisoned:
	default:
		t.Fatal("the timed-out cell's executor was not poisoned")
	}

	rec, err := Guard(time.Minute, func() (benchfmt.Record, error) { return Run(one("hybcomb", 1), keys, time.Millisecond) })
	if err != nil || rec.Ops == 0 {
		t.Fatalf("cell after a timed-out one: rec=%+v err=%v", rec, err)
	}
	close(release)
	<-exited
	if x := live.Load(); x != nil {
		t.Fatalf("live cell left behind: %v", *x)
	}
}
