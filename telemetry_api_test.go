// Tests for the telemetry layer through the public surface: every
// registered construction, armed with WithTelemetry, must produce
// latency samples, a conservative run-length histogram (every applied
// operation appears in exactly one dispatch run), and a poison count
// when its object faults.
package hybsync_test

import (
	"sync"
	"testing"

	"hybsync"
)

// TestTelemetryAllAlgorithms drives every built-in algorithm with an
// armed metric core and checks the three signals the layer exists for.
// Built-ins only: application-registered executors (api_test's custom
// algorithm) are under no obligation to wire telemetry.
func TestTelemetryAllAlgorithms(t *testing.T) {
	const goroutines, per = 4, 256
	for _, name := range requiredAlgos {
		t.Run(name, func(t *testing.T) {
			tel := hybsync.NewTelemetry()
			var state uint64
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 {
				v := state
				state = v + 1
				return v
			}), hybsync.WithMaxThreads(goroutines), hybsync.WithTelemetry(tel))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h, err := ex.NewHandle()
				if err != nil {
					t.Fatalf("NewHandle %d: %v", g, err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						h.Apply(0, 0)
					}
				}()
			}
			wg.Wait()
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			snap := tel.Snapshot()
			// Latency is sampled 1/16 per recorder; 256 blocking calls per
			// handle guarantee samples on every construction.
			if snap.Latency.Count == 0 {
				t.Error("no latency samples recorded")
			}
			if snap.Latency.Count > goroutines*per {
				t.Errorf("latency samples %d exceed blocking calls %d",
					snap.Latency.Count, goroutines*per)
			}
			// Run-length conservation: every applied operation lands in
			// exactly one dispatch run.
			if got := snap.RunLen.Sum; got != goroutines*per {
				t.Errorf("run-length sum = %d, want %d (one entry per op)", got, goroutines*per)
			}
			if snap.RunLen.Count == 0 || snap.RunLen.Count > goroutines*per {
				t.Errorf("dispatch runs = %d, want within [1, %d]", snap.RunLen.Count, goroutines*per)
			}
			if snap.RunLen.Max == 0 {
				t.Error("run-length max = 0 with ops recorded")
			}
			if snap.Poisons != 0 {
				t.Errorf("healthy run counted %d poisons", snap.Poisons)
			}

			// The executor exposes the same core via TelemetrySource.
			src, ok := ex.(hybsync.TelemetrySource)
			if !ok {
				t.Fatalf("%T does not implement TelemetrySource", ex)
			}
			if src.Telemetry() != tel {
				t.Error("Telemetry() returned a different core than WithTelemetry attached")
			}
		})
	}
}

// TestTelemetryCountsPoison: an object panic must show up as exactly
// one poison event on the attached core.
func TestTelemetryCountsPoison(t *testing.T) {
	for _, name := range []string{"mpserver", "hybcomb", "ccsynch", "shmserver", "mcs-lock"} {
		t.Run(name, func(t *testing.T) {
			tel := hybsync.NewTelemetry()
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 {
				panic("telemetry-test fault")
			}), hybsync.WithTelemetry(tel))
			if err != nil {
				t.Fatal(err)
			}
			h, err := ex.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			h.Apply(0, 0)
			if ex.Err() == nil {
				t.Fatal("panicking dispatch did not poison the executor")
			}
			ex.Close() // reports the PoisonError; expected
			if got := tel.Snapshot().Poisons; got != 1 {
				t.Errorf("poisons = %d, want 1", got)
			}
		})
	}
}

// TestTelemetryDisarmedByDefault: without WithTelemetry the executor
// reports a nil core and nothing records (the disarmed contract the
// overhead gate relies on).
func TestTelemetryDisarmedByDefault(t *testing.T) {
	ex := hybsync.MustNewObject("hybcomb", hybsync.Func(func(op, arg uint64) uint64 { return 0 }))
	defer ex.Close()
	h := hybsync.MustHandle(ex)
	for i := 0; i < 64; i++ {
		h.Apply(0, 0)
	}
	src, ok := ex.(hybsync.TelemetrySource)
	if !ok {
		t.Fatal("executor does not implement TelemetrySource")
	}
	if src.Telemetry() != nil {
		t.Error("disarmed executor reports a non-nil Telemetry")
	}
}

// TestTelemetrySharedAcrossExecutors: one core attached to two
// executors aggregates both (the sharded-bench usage).
func TestTelemetrySharedAcrossExecutors(t *testing.T) {
	tel := hybsync.NewTelemetry()
	var a, b uint64
	exA := hybsync.MustNewObject("mpserver", hybsync.Func(func(op, arg uint64) uint64 { a++; return a }), hybsync.WithTelemetry(tel))
	exB := hybsync.MustNewObject("ccsynch", hybsync.Func(func(op, arg uint64) uint64 { b++; return b }), hybsync.WithTelemetry(tel))
	ha, hb := hybsync.MustHandle(exA), hybsync.MustHandle(exB)
	const per = 100
	for i := 0; i < per; i++ {
		ha.Apply(0, 0)
		hb.Apply(0, 0)
	}
	exA.Close()
	exB.Close()
	if got := tel.Snapshot().RunLen.Sum; got != 2*per {
		t.Errorf("shared core run-length sum = %d, want %d", got, 2*per)
	}
}
