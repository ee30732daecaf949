package core_test

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// runRec records the length of every DispatchBatch run; results are
// execution indices, so ticket order is visible in the values. fuse,
// when not negative, is the execution index at which it panics; an
// opPark request parks the dispatching thread, inside its run, until
// release is closed.
type runRec struct {
	runs  []int
	state uint64
	fuse  int64

	entered, release chan struct{}
}

const opPark = 1

func (o *runRec) DispatchBatch(reqs []core.Req, results []uint64) {
	o.runs = append(o.runs, len(reqs))
	for i, r := range reqs {
		if o.fuse >= 0 && o.state == uint64(o.fuse) {
			panic("lock_runs_test: injected fault")
		}
		if r.Op == opPark {
			o.entered <- struct{}{}
			<-o.release
		}
		results[i] = o.state
		o.state++
	}
}

// deferSubjects runs body over every construction whose window is a
// handle's deferred run: the five registered locks, the hybrid pinned
// in lock mode, hybcomb and ccsynch, each over a fresh recording object
// and QueueCap queueCap.
func deferSubjects(t *testing.T, queueCap int, body func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle)) {
	open := map[string]func(obj core.Object) core.Executor{
		"hybrid-forced-lock": func(obj core.Object) core.Executor {
			h := core.NewHybrid(obj, core.Options{QueueCap: queueCap})
			core.FreezeHybrid(h)
			return h
		},
	}
	for _, algo := range core.Algorithms() {
		if strings.HasSuffix(algo, "-lock") || algo == "hybcomb" || algo == "ccsynch" {
			open[algo] = func(obj core.Object) core.Executor {
				return core.MustNewObject(algo, obj, core.WithQueueCap(queueCap))
			}
		}
	}
	if len(open) != 8 {
		t.Fatalf("%d deferring subjects, want the five registered locks, the hybrid, hybcomb and ccsynch", len(open))
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			handletest.Guard(t, func() {
				obj := &runRec{fuse: -1}
				ex := mk(obj)
				body(t, obj, ex, core.MustHandle(ex))
			})
		})
	}
}

func submitN(t *testing.T, h core.Handle, n int) []core.Ticket {
	t.Helper()
	tks := make([]core.Ticket, n)
	for i := range tks {
		var err error
		if tks[i], err = h.Submit(0, 0); err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
	}
	return tks
}

func wantRuns(t *testing.T, obj *runRec, want ...int) {
	t.Helper()
	if !slices.Equal(obj.runs, want) {
		t.Fatalf("the object saw runs %v, want %v", obj.runs, want)
	}
}

// TestLockWindowIsOneRun: a window of Submits costs nothing until a
// completion is demanded, then reaches the object as ONE DispatchBatch
// — under one acquisition, or as a lone combiner's own run; results
// follow ticket order whatever the Wait order.
func TestLockWindowIsOneRun(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
		tks := submitN(t, h, 8)
		wantRuns(t, obj)
		for _, i := range []int{5, 0, 7, 2, 1, 6, 3, 4} {
			if v := h.Wait(tks[i]); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) = %d", i, v)
			}
		}
		wantRuns(t, obj, 8)
		if rounds, combined := ex.(core.StatsSource).Stats(); rounds != 1 || combined != 0 {
			t.Errorf("Stats() = (%d, %d), want one round and nothing combined", rounds, combined)
		}
	})
}

// TestLockPostsFlushAsOneRun: Posts execute at the Flush, together.
func TestLockPostsFlushAsOneRun(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
		for i := 0; i < 5; i++ {
			if err := h.Post(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		wantRuns(t, obj)
		h.Flush()
		wantRuns(t, obj, 5)
		h.Flush() // nothing pending: no empty run
		wantRuns(t, obj, 5)
	})
}

// TestLockApplyJoinsPendingRun: a blocking Apply (or ApplyBatch) behind
// pending submissions executes them and itself as one run, in FIFO
// order; with nothing pending it is the bare critical section again.
func TestLockApplyJoinsPendingRun(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
		tks := submitN(t, h, 3)
		if v := h.Apply(0, 0); v != 3 {
			t.Fatalf("Apply behind three submissions = %d, want 3", v)
		}
		wantRuns(t, obj, 4)
		for i, tk := range tks {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) = %d", i, v)
			}
		}
		if v := h.Apply(0, 0); v != 4 {
			t.Fatalf("Apply with nothing in flight = %d, want 4", v)
		}
		h.Post(0, 0)
		res := make([]uint64, 3)
		h.ApplyBatch(make([]core.Req, 3), res)
		if !slices.Equal(res, []uint64{6, 7, 8}) {
			t.Fatalf("ApplyBatch behind a Post = %v, want [6 7 8]", res)
		}
		wantRuns(t, obj, 4, 1, 4)
	})
}

// TestLockBoundedWaitsExecuteTheRun: nobody else will ever serve a lone
// handle's pending run — a lock's, or a combining construction's with
// no round open — so TryWait and WaitTimeout execute it instead of
// reporting it not ready.
func TestLockBoundedWaitsExecuteTheRun(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
		tks := submitN(t, h, 4)
		if v, err := h.TryWait(tks[3]); v != 3 || err != nil {
			t.Fatalf("TryWait(newest of a pending run) = (%d, %v), want (3, nil)", v, err)
		}
		wantRuns(t, obj, 4)
		more := submitN(t, h, 2)
		if v, err := h.WaitTimeout(more[0], time.Nanosecond); v != 4 || err != nil {
			t.Fatalf("WaitTimeout(pending, 1ns) = (%d, %v), want (4, nil)", v, err)
		}
		wantRuns(t, obj, 4, 2)
		h.Flush()
		wantRuns(t, obj, 4, 2)
	})
}

// TestLockQueueCapBoundsTheRun: QueueCap is the deferral bound — the
// submission past it stalls once and executes the window so far.
func TestLockQueueCapBoundsTheRun(t *testing.T) {
	const queueCap = 4
	deferSubjects(t, queueCap, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
		tks := submitN(t, h, queueCap)
		wantRuns(t, obj)
		tks = append(tks, submitN(t, h, 1)...)
		wantRuns(t, obj, queueCap)
		if stalls, depth := ex.(core.PipelineStats).Pipeline(); stalls != 1 || depth != queueCap {
			t.Errorf("Pipeline() = (%d stalls, depth %d), want (1, %d)", stalls, depth, queueCap)
		}
		for i, tk := range tks {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) = %d", i, v)
			}
		}
		wantRuns(t, obj, queueCap, 1)
	})
}

// TestLockCloseThenWait: Close seals the executor; the handle's pending
// run still executes at the Wait that redeems it.
func TestLockCloseThenWait(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
		tks := submitN(t, h, 3)
		if err := ex.Close(); err != nil {
			t.Fatal(err)
		}
		for i, tk := range tks {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) after Close = %d", i, v)
			}
		}
		wantRuns(t, obj, 3)
	})
}

// TestLockPoisonMidWindow: a fault inside the deferred run voids the
// whole run — every pending ticket completes with zero and the handle
// reports the poison.
func TestLockPoisonMidWindow(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
		obj.fuse = 2
		tks := submitN(t, h, 5)
		if err := h.Err(); err != nil {
			t.Fatalf("Err() = %v before the run executed", err)
		}
		for i, tk := range tks {
			if v := h.Wait(tk); v != 0 {
				t.Fatalf("Wait(ticket %d) = %d after a fault in its run, want 0", i, v)
			}
		}
		if !errors.Is(h.Err(), core.ErrPoisoned) {
			t.Fatalf("Err() = %v, want the poison", h.Err())
		}
		if _, err := h.Submit(0, 0); !errors.Is(err, core.ErrPoisoned) {
			t.Fatalf("Submit on the poisoned handle = %v", err)
		}
		wantRuns(t, obj, 5)
	})
}

// TestLockSubmitBatchBehindSingles: a SubmitBatch behind pending
// singles joins their run, per-handle FIFO intact; with nothing in
// flight it stays the on-the-spot run.
func TestLockSubmitBatchBehindSingles(t *testing.T) {
	deferSubjects(t, 39, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
		singles := submitN(t, h, 2)
		batch, err := h.SubmitBatch(make([]core.Req, 3))
		if err != nil {
			t.Fatal(err)
		}
		after := submitN(t, h, 1)
		wantRuns(t, obj)
		if v := h.Wait(after[0]); v != 5 {
			t.Fatalf("Wait(single behind the batch) = %d, want 5", v)
		}
		wantRuns(t, obj, 6)
		for i := 2; i >= 0; i-- {
			if v := h.Wait(batch.Offset(i)); v != uint64(2+i) {
				t.Fatalf("Wait(batch offset %d) = %d, want %d", i, v, 2+i)
			}
		}
		for i, tk := range singles {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("Wait(single %d) = %d", i, v)
			}
		}
		spot, err := h.SubmitBatch(make([]core.Req, 4))
		if err != nil {
			t.Fatal(err)
		}
		wantRuns(t, obj, 6, 4)
		if v := h.Wait(spot.Offset(3)); v != 9 {
			t.Fatalf("Wait(last offset of an on-the-spot batch) = %d, want 9", v)
		}
	})
}

// TestHybCombRunJoinsOpenRound: with another thread's round parked in
// the object, a demanded pending run registers with that round — the
// demand, a TryWait, ships it and reports it not ready — and is served
// inside it as one drained run, combined on the owner's behalf.
func TestHybCombRunJoinsOpenRound(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: -1, entered: make(chan struct{}), release: make(chan struct{})}
		ex := core.NewHybComb(obj, core.Options{MaxThreads: 2})
		holder, h := core.MustHandle(ex), core.MustHandle(ex)
		held := make(chan uint64)
		go func() { held <- holder.Apply(opPark, 0) }()
		<-obj.entered
		tks := submitN(t, h, 6)
		for i := 0; i < 2; i++ {
			if _, err := h.TryWait(tks[5]); !errors.Is(err, core.ErrNotReady) {
				t.Fatalf("TryWait with the round's combiner parked = %v, want ErrNotReady", err)
			}
		}
		close(obj.release)
		if v := <-held; v != 0 {
			t.Fatalf("holder's Apply = %d, want 0", v)
		}
		for _, i := range []int{3, 0, 5, 1, 4, 2} {
			if v := h.Wait(tks[i]); v != uint64(1+i) {
				t.Fatalf("Wait(ticket %d) = %d, want %d", i, v, 1+i)
			}
		}
		wantRuns(t, obj, 1, 6)
		if rounds, combined := ex.Stats(); rounds != 1 || combined != 6 {
			t.Errorf("Stats() = (%d, %d), want the holder's one round combining the run of 6", rounds, combined)
		}
	})
}

// TestHybCombRunSplitsAtMaxOps: a demanded run that meets another
// thread's parked round registers only what that round still takes
// (MaxOps), promotes its owner with the rest and executes the rest as
// its own round's run once the parked round is done. The registered
// prefix completes first, then the own run: every ticket, waited out of
// order, redeems its own execution index.
func TestHybCombRunSplitsAtMaxOps(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: -1, entered: make(chan struct{}), release: make(chan struct{})}
		ex := core.NewHybComb(obj, core.Options{MaxThreads: 2, MaxOps: 3})
		holder, h := core.MustHandle(ex), core.MustHandle(ex) // thread ids 0 and 1
		held := make(chan uint64)
		go func() { held <- holder.Apply(opPark, 0) }()
		<-obj.entered
		tks := submitN(t, h, 6)
		got := make(chan []uint64)
		go func() {
			vals := make([]uint64, len(tks))
			for _, i := range []int{4, 0, 5, 1, 3, 2} {
				vals[i] = h.Wait(tks[i])
			}
			got <- vals
		}()
		for core.HybCombLastCombiner(ex) != 1 { // h registered 3 and promoted behind the parked round
			runtime.Gosched()
		}
		close(obj.release)
		if v := <-held; v != 0 {
			t.Fatalf("holder's Apply = %d, want 0", v)
		}
		for i, v := range <-got {
			if v != uint64(1+i) {
				t.Fatalf("Wait(ticket %d) = %d, want %d", i, v, 1+i)
			}
		}
		wantRuns(t, obj, 1, 3, 3)
		if rounds, combined := ex.Stats(); rounds != 2 || combined != 3 {
			t.Errorf("Stats() = (%d, %d), want two rounds, the holder's combining the prefix of 3", rounds, combined)
		}
	})
}

// TestWindowDefers: the one property behind the rounds + combined <= ops
// reading of a pipelined StatsSource holds for a handle of every
// construction whose window defers, and for no other — every registered
// algorithm is classified here, and a bare SyncHandle does not defer.
func TestWindowDefers(t *testing.T) {
	want := map[string]bool{
		"tas-lock": true, "ttas-lock": true, "ticket-lock": true, "mcs-lock": true, "clh-lock": true,
		"hybrid": true, "hybcomb": true, "ccsynch": true,
		"mpserver": false, "shmserver": false,
	}
	seen := 0
	for _, algo := range core.Algorithms() {
		if strings.Contains(algo, "-test-") {
			continue // registered by another test, under its own name
		}
		defers, ok := want[algo]
		if !ok {
			t.Errorf("%s is not classified: add it to want", algo)
			continue
		}
		seen++
		ex := core.MustNewObject(algo, core.Func(func(op, arg uint64) uint64 { return 0 }))
		if got := core.WindowDefers(core.MustHandle(ex)); got != defers {
			t.Errorf("WindowDefers(a %s handle) = %v, want %v", algo, got, defers)
		}
		ex.Close()
	}
	if seen != len(want) {
		t.Errorf("%d of the %d classified algorithms are registered", seen, len(want))
	}
	if core.WindowDefers(core.SyncHandle(func(op, arg uint64) uint64 { return 0 })) {
		t.Error("WindowDefers(SyncHandle) = true, want false")
	}
}
