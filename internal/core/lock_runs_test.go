package core_test

import (
	"errors"
	"runtime"
	"slices"
	"testing"
	"time"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// runRec records the length of every DispatchBatch run; results are
// execution indices, so ticket order is visible in the values. fuse,
// when not negative, is the execution index at which it panics, once:
// a one-shot fuse trips one latch on whichever path dispatched it, and
// cannot recur on another, guarded path and hide a bypass. An opPark
// request parks the dispatching thread, inside its run, until release
// is closed.
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
			o.fuse = -1
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
// handle's deferred run: mcs-lock, the hybrid pinned in lock mode,
// hybcomb and ccsynch — whose demand executes the run, or
// registers it with an open round — and, with server, mpserver, whose
// demand sends the run as one message the server answers in its own
// time; each over a fresh recording object and QueueCap queueCap.
func deferSubjects(t *testing.T, queueCap int, server bool, body func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle)) {
	open := map[string]func(obj core.Object) core.Executor{
		"hybrid-forced-lock": func(obj core.Object) core.Executor {
			h := core.NewHybrid(obj, core.Options{QueueCap: queueCap})
			core.FreezeHybrid(h)
			return h
		},
	}
	for _, algo := range core.Algorithms() {
		if algo == "mcs-lock" || algo == "hybcomb" || algo == "ccsynch" || server && algo == "mpserver" {
			open[algo] = func(obj core.Object) core.Executor {
				return core.MustNewObject(algo, obj, core.WithQueueCap(queueCap))
			}
		}
	}
	want := 4
	if server {
		want++
	}
	if len(open) != want {
		t.Fatalf("%d deferring subjects, want mcs-lock, the hybrid, hybcomb, ccsynch and (with server) mpserver", len(open))
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			handletest.Guard(t, func() {
				obj := &runRec{fuse: -1}
				ex := mk(obj)
				body(t, obj, ex, core.MustHandle(ex))
				ex.Close() // stops mpserver's server; the poisoned cases report the poison
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
// — under one acquisition, as a lone combiner's own run, or as one
// message to the server; results follow ticket order whatever the Wait
// order.
func TestLockWindowIsOneRun(t *testing.T) {
	deferSubjects(t, 39, true, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
		tks := submitN(t, h, 8)
		wantRuns(t, obj)
		for _, i := range []int{5, 0, 7, 2, 1, 6, 3, 4} {
			if v := h.Wait(tks[i]); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) = %d", i, v)
			}
		}
		wantRuns(t, obj, 8)
		if ss, ok := ex.(core.StatsSource); ok {
			if rounds, combined := ss.Stats(); rounds != 1 || combined != 0 {
				t.Errorf("Stats() = (%d, %d), want one round and nothing combined", rounds, combined)
			}
		}
	})
}

// TestLockPostsFlushAsOneRun: Posts execute at the Flush, together.
func TestLockPostsFlushAsOneRun(t *testing.T) {
	deferSubjects(t, 39, true, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
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
	deferSubjects(t, 39, true, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
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
	deferSubjects(t, 39, false, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
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
	deferSubjects(t, queueCap, true, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
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

// TestLockBatchPastQueueCapIsOneRun: QueueCap bounds what a window can
// leave owed, not a batch a lone handle executes on the spot — a batch
// longer than QueueCap is still one run, one acquisition or one round,
// with no stall.
func TestLockBatchPastQueueCapIsOneRun(t *testing.T) {
	const queueCap = 4
	deferSubjects(t, queueCap, false, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
		tk, err := h.SubmitBatch(make([]core.Req, 3*queueCap))
		if err != nil {
			t.Fatal(err)
		}
		wantRuns(t, obj, 3*queueCap)
		if v := h.Wait(tk.Offset(3*queueCap - 1)); v != 3*queueCap-1 {
			t.Fatalf("Wait(last offset) = %d, want %d", v, 3*queueCap-1)
		}
		res := make([]uint64, 2*queueCap+1)
		h.ApplyBatch(make([]core.Req, len(res)), res)
		if res[0] != 3*queueCap || res[len(res)-1] != 5*queueCap {
			t.Fatalf("ApplyBatch = %v, want %d to %d", res, 3*queueCap, 5*queueCap)
		}
		wantRuns(t, obj, 3*queueCap, 2*queueCap+1)
		if stalls, _ := ex.(core.PipelineStats).Pipeline(); stalls != 0 {
			t.Errorf("Pipeline() = %d stalls, want none", stalls)
		}
	})
}

// TestLockCloseThenWait: Close seals the executor (and stops mpserver's
// server); the handle's pending run still executes at the Wait that
// redeems it.
func TestLockCloseThenWait(t *testing.T) {
	deferSubjects(t, 39, true, func(t *testing.T, obj *runRec, ex core.Executor, h core.Handle) {
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
	deferSubjects(t, 39, true, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
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
	deferSubjects(t, 39, false, func(t *testing.T, obj *runRec, _ core.Executor, h core.Handle) {
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

// TestCCSynchRunCellRespectsMaxOps: MaxOps counts requests, not cells.
// Two handles' runs of 3 queue behind a round parked in the object; the
// first run's owner inherits the duty and serves its own cell, and the
// second, which would take the round to 6 > MaxOps 4, ends the round
// and is handed the duty. A run of 6 on its own is its owner's own
// round, served whole.
func TestCCSynchRunCellRespectsMaxOps(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: -1, entered: make(chan struct{}), release: make(chan struct{})}
		c := core.NewCCSynch(obj, core.Options{MaxOps: 4})
		defer c.Close()
		holder, a, b := core.MustHandle(c), core.MustHandle(c), core.MustHandle(c)
		held := make(chan uint64)
		go func() { held <- holder.Apply(opPark, 0) }()
		<-obj.entered

		window := func(h core.Handle, n int) []uint64 {
			tks := make([]core.Ticket, n)
			for i := range tks {
				tks[i], _ = h.Submit(0, 0)
			}
			vals := make([]uint64, n)
			for i, tk := range tks {
				vals[i] = h.Wait(tk)
			}
			return vals
		}
		// Each run is linked into the chain before the next one publishes.
		got := [2]chan []uint64{make(chan []uint64, 1), make(chan []uint64, 1)}
		awaitLink := core.CCSynchLinks(c)
		for i, h := range []core.Handle{a, b} {
			go func() { got[i] <- window(h, 3) }()
			awaitLink()
		}
		close(obj.release)
		if v := <-held; v != 0 {
			t.Fatalf("holder's Apply = %d, want 0", v)
		}
		first, second := <-got[0], <-got[1]
		if !slices.Equal(first, []uint64{1, 2, 3}) || !slices.Equal(second, []uint64{4, 5, 6}) {
			t.Fatalf("the two windows redeemed %v and %v, want [1 2 3] and [4 5 6]", first, second)
		}
		if !slices.Equal(obj.runs, []int{1, 3, 3}) {
			t.Fatalf("the object saw runs %v, want [1 3 3]: a run cell past MaxOps joined the round", obj.runs)
		}
		if rounds, combined := c.Stats(); rounds != 3 || combined != 0 {
			t.Errorf("Stats() = (%d, %d), want three rounds, each its combiner's own cell", rounds, combined)
		}

		if vals := window(a, 6); !slices.Equal(vals, []uint64{7, 8, 9, 10, 11, 12}) {
			t.Fatalf("a lone run of 6 redeemed %v", vals)
		}
		if !slices.Equal(obj.runs, []int{1, 3, 3, 6}) {
			t.Fatalf("the object saw runs %v, want [1 3 3 6]: a lone run past MaxOps is one own round", obj.runs)
		}
	})
}
