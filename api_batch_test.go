// Tests for the batch-aware execution contract: the differential
// property test (a scalar function under Func vs. batched DispatchBatch vs. a
// sequential model, with randomized batch boundaries, across every
// registered construction), batch/pipeline interleaving, and the
// PipelineStats backpressure counters.
package hybsync_test

import (
	"sync"
	"testing"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/core"
)

// regModel is the sequential reference: a single register with three
// operations — add (returns the old value), xor (returns the old
// value), read.
type regModel struct{ state uint64 }

func (m *regModel) step(op, arg uint64) uint64 {
	old := m.state
	switch op % 3 {
	case 0:
		m.state = old + arg
	case 1:
		m.state = old ^ arg
	}
	return old
}

// regObject is the batch-aware implementation of the same machine; it
// also checks the constructions' side of the DispatchBatch contract on
// every call it receives.
type regObject struct {
	t *testing.T
	m regModel
}

func (o *regObject) DispatchBatch(reqs []hybsync.Req, results []uint64) {
	if len(results) != len(reqs) {
		o.t.Errorf("DispatchBatch: len(results) = %d, len(reqs) = %d", len(results), len(reqs))
	}
	for i, r := range reqs {
		results[i] = o.m.step(r.Op, r.Arg)
	}
}

// TestBatchScalarDifferential drives one random operation stream three
// ways — scalar Apply over a Func-wrapped function, ApplyBatch
// over NewObject with randomized batch boundaries (including batches
// larger than QueueCap, which must chunk through the pipeline), and the
// sequential model — and requires identical result streams from every
// registered construction.
func TestBatchScalarDifferential(t *testing.T) {
	const nops = 600
	for _, algo := range hybsync.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			rng := harness.NewXorShift(0xBA7C4)
			stream := make([]hybsync.Req, nops)
			for i := range stream {
				stream[i] = hybsync.Req{Op: rng.Next() % 3, Arg: rng.Next() % 1024}
			}
			want := make([]uint64, nops)
			var model regModel
			for i, r := range stream {
				want[i] = model.step(r.Op, r.Arg)
			}

			// Legacy path: a scalar dispatch function, one Apply per op.
			var scalarState regModel
			ex, err := hybsync.NewObject(algo, hybsync.Func(scalarState.step), hybsync.WithQueueCap(8))
			if err != nil {
				t.Fatalf("New(%s): %v", algo, err)
			}
			h := hybsync.MustHandle(ex)
			for i, r := range stream {
				if got := h.Apply(r.Op, r.Arg); got != want[i] {
					t.Fatalf("scalar op %d = %d, want %d", i, got, want[i])
				}
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// Batch path: the native object, the same stream cut at random
			// boundaries (1..max, where max exceeds QueueCap).
			obj := &regObject{t: t}
			exb, err := hybsync.NewObject(algo, obj, hybsync.WithQueueCap(8))
			if err != nil {
				t.Fatalf("NewObject(%s): %v", algo, err)
			}
			hb := hybsync.MustHandle(exb)
			results := make([]uint64, nops)
			for i := 0; i < nops; {
				n := int(rng.Next()%24) + 1
				if i+n > nops {
					n = nops - i
				}
				hb.ApplyBatch(stream[i:i+n], results[i:i+n])
				i += n
			}
			for i := range results {
				if results[i] != want[i] {
					t.Fatalf("batch op %d = %d, want %d (boundaries randomized, seed fixed)", i, results[i], want[i])
				}
			}
			if err := exb.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestApplyBatchInterleavesFIFO: a batch issued while the pipeline
// holds outstanding submissions executes after them (per-handle FIFO),
// and nil results still executes the batch before returning.
func TestApplyBatchInterleavesFIFO(t *testing.T) {
	for _, algo := range []string{"mpserver", "hybcomb", "ccsynch", "shmserver", "mcs-lock"} {
		t.Run(algo, func(t *testing.T) {
			var state uint64
			ex, err := hybsync.NewObject(algo, hybsync.Func(func(op, arg uint64) uint64 {
				v := state
				state = v + 1
				return v
			}), hybsync.WithMaxThreads(2))
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			h := hybsync.MustHandle(ex)
			var tks [3]hybsync.Ticket
			for i := range tks {
				tks[i], _ = h.Submit(0, 0)
			}
			batch := []hybsync.Req{{}, {}, {}, {}}
			res := make([]uint64, len(batch))
			h.ApplyBatch(batch, res)
			for i, v := range res {
				if want := uint64(3 + i); v != want {
					t.Fatalf("batch result %d = %d, want %d (batch must execute after outstanding submissions)", i, v, want)
				}
			}
			for i, tk := range tks {
				if v := h.Wait(tk); v != uint64(i) {
					t.Fatalf("ticket %d = %d, want %d", i, v, i)
				}
			}
			// A discard batch completes before returning: the state
			// advance is visible to the next operation.
			h.ApplyBatch(batch, nil)
			if v := h.Apply(0, 0); v != uint64(3+len(batch)+len(batch)) {
				t.Fatalf("op after discard batch = %d, want %d", v, 3+2*len(batch))
			}
		})
	}
}

// TestBatchConcurrentConservation: several goroutines drive random-size
// ApplyBatch runs of increments concurrently; under -race this guards
// the mutual-exclusion claim of every construction's batch path, and
// the final state checks no operation was lost or doubled.
func TestBatchConcurrentConservation(t *testing.T) {
	const goroutines, batches = 4, 120
	for _, algo := range []string{"mpserver", "hybcomb", "ccsynch", "shmserver", "mcs-lock"} {
		t.Run(algo, func(t *testing.T) {
			obj := &regObject{t: t}
			ex, err := hybsync.NewObject(algo, obj,
				hybsync.WithMaxThreads(goroutines), hybsync.WithQueueCap(6))
			if err != nil {
				t.Fatal(err)
			}
			var want [goroutines]uint64
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h := hybsync.MustHandle(ex)
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := harness.NewXorShift(uint64(g + 1))
					var reqs []hybsync.Req
					var n uint64
					for b := 0; b < batches; b++ {
						reqs = reqs[:0]
						for k := int(rng.Next()%13) + 1; k > 0; k-- {
							reqs = append(reqs, hybsync.Req{Op: 0, Arg: 1})
							n++
						}
						if b%3 == 0 {
							h.ApplyBatch(reqs, nil) // discard leg
						} else {
							h.ApplyBatch(reqs, make([]uint64, len(reqs)))
						}
					}
					want[g] = n
				}(g)
			}
			wg.Wait()
			var total uint64
			for _, n := range want {
				total += n
			}
			if err := ex.Close(); err != nil {
				t.Fatal(err)
			}
			if obj.m.state != total {
				t.Fatalf("state = %d, want %d increments", obj.m.state, total)
			}
		})
	}
}

// statsSources runs body over every registered algorithm that exposes
// StatsSource, three handles each.
func statsSources(t *testing.T, body func(t *testing.T, ex hybsync.Executor, src hybsync.StatsSource, handles []hybsync.Handle)) {
	const goroutines = 3
	for _, algo := range hybsync.Algorithms() {
		ex, err := hybsync.NewObject(algo, hybsync.Func(func(op, arg uint64) uint64 { return 0 }),
			hybsync.WithMaxThreads(goroutines))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		src, ok := ex.(hybsync.StatsSource)
		if !ok {
			if algo == "hybcomb" || algo == "ccsynch" {
				t.Errorf("%s does not expose StatsSource", algo)
			}
			continue // the two servers keep no combining statistics
		}
		t.Run(algo, func(t *testing.T) {
			handles := make([]hybsync.Handle, goroutines)
			for g := range handles {
				handles[g] = hybsync.MustHandle(ex)
			}
			body(t, ex, src, handles)
		})
	}
}

// TestStatsAtFlushedQuiescence pins the StatsSource read contract down
// in terms of flushed handles: once every handle with submissions
// outstanding has been flushed, the combining statistics are stable
// (two consecutive reads agree) and account for the scalar operations
// submitted. Where a Submit is one request, that is the identity rounds
// + combined == ops — each round carries its owner's one operation,
// everything else it served is combined. Where the handle's window
// defers (core.WindowDefers: the locks, the hybrid, HybComb, CC-Synch),
// its pipelined submissions execute as deferred runs, each ONE round of
// several own operations (exactly like an ApplyBatch), so the source
// reads rounds + combined <= ops — and no fewer than one per full
// window — with combined == 0 on the locks, where nobody executes on
// another thread's behalf.
func TestStatsAtFlushedQuiescence(t *testing.T) {
	const per = 400
	statsSources(t, func(t *testing.T, ex hybsync.Executor, src hybsync.StatsSource, handles []hybsync.Handle) {
		var wg sync.WaitGroup
		for _, h := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if i%2 == 0 {
						h.Post(0, 0)
					} else {
						h.Submit(0, 0)
					}
				}
				h.Flush() // the read below is only defined after this
			}()
		}
		wg.Wait()
		r1, c1 := src.Stats()
		r2, c2 := src.Stats()
		if r1 != r2 || c1 != c2 {
			t.Fatalf("Stats unstable after all handles flushed: (%d,%d) then (%d,%d)", r1, c1, r2, c2)
		}
		total := uint64(len(handles) * per)
		if !core.WindowDefers(handles[0]) {
			if r1+c1 != total {
				t.Fatalf("rounds %d + combined %d account for %d ops, want %d (reads are only defined once every handle is flushed)",
					r1, c1, r1+c1, total)
			}
			return
		}
		const queueCap = 39 // the default: a deferred run is at most one window long
		if r1+c1 > total || r1+c1 < total/queueCap {
			t.Fatalf("rounds %d + combined %d over %d pipelined ops, want between %d (every window one round) and %d",
				r1, c1, total, total/queueCap, total)
		}
		_, lock := ex.(hybsync.RetryStats)
		if _, adaptive := ex.(hybsync.AdaptiveStats); lock && !adaptive && c1 != 0 {
			t.Fatalf("combined = %d on a lock: nothing executes on another thread's behalf", c1)
		}
	})
}

// TestStatsBlockingIdentity is the other half of the StatsSource
// counter contract: under blocking Apply every operation is a round
// owner's single own operation or combined by someone else, so rounds +
// combined == ops on every StatsSource, the locks (an acquisition is a
// round of one) and the hybrid included.
func TestStatsBlockingIdentity(t *testing.T) {
	const per = 400
	statsSources(t, func(t *testing.T, _ hybsync.Executor, src hybsync.StatsSource, handles []hybsync.Handle) {
		var wg sync.WaitGroup
		for _, h := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					h.Apply(0, 0)
				}
			}()
		}
		wg.Wait()
		if r, c := src.Stats(); r+c != uint64(len(handles)*per) {
			t.Fatalf("rounds %d + combined %d account for %d ops, want %d", r, c, r+c, len(handles)*per)
		}
	})
}

// TestPipelineStats: the pipelining constructions export backpressure
// counters — a submission window driven past QueueCap must record
// stalls and the high-water in-flight depth, whether the window is
// messages in flight (mpserver) or a lock handle's deferred run
// (mcs-lock); immediate-completion constructions do not implement the
// extension.
func TestPipelineStats(t *testing.T) {
	const qcap = 4
	for _, algo := range []string{"mpserver", "mcs-lock"} {
		ex, err := hybsync.NewObject(algo, hybsync.Func(func(op, arg uint64) uint64 { return 0 }),
			hybsync.WithMaxThreads(2), hybsync.WithQueueCap(qcap))
		if err != nil {
			t.Fatal(err)
		}
		defer ex.Close()
		h := hybsync.MustHandle(ex)
		const n = 20
		for i := 0; i < n; i++ {
			h.Post(0, 0)
		}
		h.Flush()
		ps, ok := ex.(hybsync.PipelineStats)
		if !ok {
			t.Fatalf("%s does not expose PipelineStats", algo)
		}
		stalls, depth := ps.Pipeline()
		if depth != qcap {
			t.Errorf("%s: maxDepth = %d, want %d (the window is bounded by QueueCap)", algo, depth, qcap)
		}
		if want := uint64(n - qcap); stalls != want {
			t.Errorf("%s: submitStalls = %d, want %d (every post past the window stalls)", algo, stalls, want)
		}
	}

	im, err := hybsync.NewObject("shmserver", hybsync.Func(func(op, arg uint64) uint64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer im.Close()
	if _, ok := im.(hybsync.PipelineStats); ok {
		t.Error("shmserver claims PipelineStats but has no submission pipeline")
	}
}
