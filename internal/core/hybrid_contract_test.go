package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
	"hybsync/internal/historytest"
)

// TestHybridContractAcrossTransitions runs the handle-contract script
// (the one the root package runs over every algorithm) against the
// hybrid with a forced transition between every two steps: tickets,
// Post discards, bounded waits, FIFO behind outstanding tickets,
// draining Close and poison completion must not care which mode each
// step ran in, nor that the handle's one window holds lock-mode and
// delegated tickets side by side.
func TestHybridContractAcrossTransitions(t *testing.T) {
	handletest.Run(t, handletest.Subject{
		Open: func(t *testing.T, obj core.Object, queueCap int) *handletest.System {
			h := core.NewHybrid(obj, core.Options{MaxThreads: 4, QueueCap: queueCap})
			core.FreezeHybrid(h) // the forced transitions own the mode
			promote := false
			return &handletest.System{
				Ex:     h,
				Handle: func() core.Handle { return core.MustHandle(h) },
				Step: func() {
					promote = !promote
					core.ForceHybridMode(h, promote)
				},
			}
		},
	})
}

// TestHybridHistoryAcrossEdges checks the hybrid's counter history in
// real time, across handles, on each of the Handle's paths, while its
// mode flips under them: an edge that let a run of one mode overlap a
// run of the other, or dropped or reordered a completion, shows as a
// pair of increments out of real-time order or a read that misses a
// flushed one.
func TestHybridHistoryAcrossEdges(t *testing.T) {
	historytest.Run(t, func(t *testing.T, obj core.Object, handles int) core.Executor {
		h := core.NewHybrid(obj, core.Options{MaxThreads: handles})
		core.FreezeHybrid(h) // the forced transitions own the mode
		stop := core.ToggleHybrid(h)
		t.Cleanup(func() {
			if p, d := stop(); p == 0 || d == 0 {
				t.Errorf("the history crossed no edge: promotions=%d demotions=%d", p, d)
			}
		})
		return h
	}, 4, 5000)
}

// TestHybridWindowAcrossEdges walks one handle's window over both
// edges deterministically: a run pending on the lock side when the mode
// is promoted keeps deferring — the handle notices the edge when the
// run is handed over — and executes as one delegated run when demanded;
// after it the handle hands each submission over at once, and each
// completes before its Submit returns: one queued behind another
// thread's parked combining round waits on the chain until that round
// is released, and the rest execute on the spot. Once the mode is
// demoted the next submission is handed over as the handle notices the
// edge, with nothing owed to settle, and later ones defer again; Posts
// ride along. Every ticket, waited out of order, redeems once with its
// own operation's result: per-handle FIFO by value.
func TestHybridWindowAcrossEdges(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &handletest.Object{Fuse: -1, Entered: make(chan struct{}, 1), Release: make(chan struct{})}
		hy := core.NewHybrid(obj, core.Options{MaxThreads: 2, QueueCap: 8})
		core.FreezeHybrid(hy)
		h, holder := core.MustHandle(hy), core.MustHandle(hy)
		type issued struct {
			tk core.Ticket
			op uint64 // the operation's execution index, which is its result
		}
		var tks []issued
		submit := func(op uint64) {
			t.Helper()
			tk, err := h.Submit(0, 0)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			tks = append(tks, issued{tk, op})
		}
		post := func() {
			t.Helper()
			if err := h.Post(0, 0); err != nil {
				t.Fatalf("Post: %v", err)
			}
		}

		submit(0) // the lock side's pending run: operations 0, 1, 2
		post()
		submit(2)
		if obj.State != 0 {
			t.Fatalf("%d operations executed before any completion was demanded", obj.State)
		}
		core.ForceHybridMode(hy, true)
		submit(3) // joins the pending run: no run has been handed over since the edge
		if obj.State != 0 {
			t.Fatalf("%d operations executed before any completion was demanded", obj.State)
		}
		h.Flush() // the run of four, delegated: a lone combiner's own run
		if obj.State != 4 {
			t.Fatalf("after Flush %d operations executed, want 4", obj.State)
		}

		held := make(chan uint64, 1)
		go func() { held <- holder.Apply(handletest.OpGate, 0) }() // operation 4: a round, parked in the object
		<-obj.Entered
		awaitLink := core.CCSynchLinks(core.HybridBackend(hy))
		type submitted struct {
			tk  core.Ticket
			err error
		}
		queued := make(chan submitted, 1)
		go func() { // operation 5: handed over at once, a cell behind the parked round
			tk, err := h.Submit(0, 0)
			queued <- submitted{tk, err}
		}()
		awaitLink()
		select {
		case s := <-queued:
			t.Fatalf("a delegated Submit returned (%v) with the round ahead of it parked", s.err)
		default:
		}
		if obj.State != 4 {
			t.Fatalf("%d operations executed with the holder's round parked, want 4", obj.State)
		}
		close(obj.Release)
		s := <-queued
		if s.err != nil {
			t.Fatalf("Submit: %v", s.err)
		}
		tks = append(tks, issued{s.tk, 5})
		if obj.State != 6 {
			t.Fatalf("after the delegated Submit returned %d operations executed, want 6", obj.State)
		}
		post() // operations 6 and 7 execute on the spot
		submit(7)
		if obj.State != 8 {
			t.Fatalf("%d operations executed after two more delegated submissions, want 8", obj.State)
		}
		core.ForceHybridMode(hy, false)
		submit(8) // handed over at once, as the handle notices the edge: the lock side, nothing owed ahead of it
		post()    // the lock side defers again
		submit(10)
		if obj.State != 9 {
			t.Fatalf("%d operations executed before the lock side's run was demanded, want 9", obj.State)
		}

		for _, i := range []int{5, 3, 1, 2, 6, 4, 0} {
			if got := h.Wait(tks[i].tk); got != tks[i].op {
				t.Fatalf("Wait(ticket of operation %d) = %d", tks[i].op, got)
			}
		}
		handletest.MustPanic(t, "Wait on a redeemed ticket", func() { h.Wait(tks[3].tk) })
		if v := <-held; v != 4 {
			t.Fatalf("holder's Apply = %d, want 4", v)
		}
		h.Flush()
		if obj.State != 11 {
			t.Fatalf("%d operations executed, want 11", obj.State)
		}
		if err := hy.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
