package measure

import (
	"runtime"
	"testing"
	"time"

	"hybsync"
)

// one builds the scalar-uniform cell of algo at th threads; tests
// override the axis under test.
func one(algo string, th int) Cell {
	return Cell{Algo: algo, Threads: th, Shards: 1, Dist: "uniform", Depth: 1, Batch: 1, Keys: 1024}
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
				rec, err := Run(c, 5*time.Millisecond)
				if err != nil {
					t.Fatal(err)
				}
				if rec.Bench != k.bench || rec.Algo != algo || rec.Threads != 2 {
					t.Fatalf("identity: %+v", rec)
				}
				// One identity per point: every axis is on the record as
				// returned, whatever the kind.
				if rec.Shards != c.Shards || rec.Dist != c.Dist || rec.Depth != c.Depth || rec.Batch != c.Batch {
					t.Fatalf("axes not stamped: %+v", rec)
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
				}
				if algo == "mpserver" && k.bench == "async" && rec.Pipe == nil {
					t.Fatalf("mpserver async record has no pipeline stats: %+v", rec)
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
	if _, err := Run(bad, time.Millisecond); err == nil {
		t.Error("unknown algo accepted")
	}
	undefined := one("mpserver", 1)
	undefined.Depth, undefined.Batch = 4, 8
	if _, err := Run(undefined, time.Millisecond); err == nil {
		t.Error("undefined cell measured")
	}
	for _, dist := range []string{"zipf:2", "pareto", "phase:0s:0.5"} {
		c := one("mpserver", 1)
		c.Dist = dist
		if _, err := Run(c, time.Millisecond); err == nil {
			t.Errorf("dist %q accepted", dist)
		}
	}
}

func TestDisarmed(t *testing.T) {
	SetTelemetry(false)
	defer SetTelemetry(true)
	rec, err := Run(one("hybcomb", 1), 5*time.Millisecond)
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
// cell held CC-Synch's dormant combiner duty that a still-running
// worker's Wait was spinning on. The fix drains each handle inside its
// own worker goroutine (harness.RunNativeDrain); this test replays the
// failing cell repeatedly under a watchdog.
func TestAsyncDrainLiveness(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	c := one("ccsynch", 4)
	c.Depth = 8
	for i := 0; i < 6; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := Run(c, 30*time.Millisecond)
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
		bench, skip := c.Classify()
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
