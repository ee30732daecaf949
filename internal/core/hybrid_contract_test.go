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

// runCounting is the script's object counting the DispatchBatch runs
// that reach it. Runs are serialized by the construction, and the test
// reads the count only after synchronizing with the last run.
type runCounting struct {
	*handletest.Object
	runs int
}

func (o *runCounting) DispatchBatch(reqs []core.Req, results []uint64) {
	o.runs++
	o.Object.DispatchBatch(reqs, results)
}

// TestHybridWindowAcrossEdges walks one handle's window over both
// edges deterministically, with both modes deferring. A run pending on
// the lock side when the mode is promoted keeps deferring, and executes
// as ONE delegated run when demanded. In delegation mode Submit and Post
// execute nothing, even with another thread's round parked in the
// object; a Flush then puts the window on the chain as one cell behind
// that round, blocks until the round is released, and executes the
// window as one run. A run pending across a demotion executes as one
// lock-side run, and the lock side defers again after it. Every ticket,
// waited out of order, redeems once with its own operation's result:
// per-handle FIFO by value.
func TestHybridWindowAcrossEdges(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runCounting{Object: &handletest.Object{Fuse: -1, Entered: make(chan struct{}, 1), Release: make(chan struct{})}}
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
		executed := func(ops, runs int, when string) {
			t.Helper()
			if obj.State != uint64(ops) || obj.runs != runs {
				t.Fatalf("%s: %d operations executed in %d runs, want %d in %d", when, obj.State, obj.runs, ops, runs)
			}
		}

		submit(0) // the lock side's pending run: operations 0, 1, 2
		post()
		submit(2)
		executed(0, 0, "before any completion was demanded")
		core.ForceHybridMode(hy, true)
		submit(3) // joins the pending run: nothing is handed over at the edge
		executed(0, 0, "after the promotion")
		h.Flush() // the run of four, delegated as one cell
		executed(4, 1, "after Flush")

		held := make(chan uint64, 1)
		go func() { held <- holder.Apply(handletest.OpGate, 0) }() // operation 4: a round, parked in the object
		<-obj.Entered
		submit(5) // deferred: none of these waits on the parked round
		post()
		submit(7)
		executed(4, 2, "with the holder's round parked")
		awaitLink := core.CCSynchLinks(core.HybridBackend(hy))
		flushed := make(chan struct{})
		go func() { // the window, one cell behind the parked round
			h.Flush()
			close(flushed)
		}()
		awaitLink()
		select {
		case <-flushed:
			t.Fatal("a delegated Flush returned with the round ahead of its cell parked")
		default:
		}
		executed(4, 2, "with the window's cell behind the parked round")
		close(obj.Release)
		<-flushed
		executed(8, 3, "after the released round and the Flush")
		if v := <-held; v != 4 {
			t.Fatalf("holder's Apply = %d, want 4", v)
		}

		submit(8) // a delegated run, pending across the demotion
		post()
		core.ForceHybridMode(hy, false)
		submit(10)
		executed(8, 3, "after the demotion")
		if got := h.Wait(tks[len(tks)-1].tk); got != 10 {
			t.Fatalf("Wait(ticket of operation 10) = %d", got)
		}
		executed(11, 4, "after the Wait that demanded the run across the demotion")
		tks = tks[:len(tks)-1]
		submit(11) // the lock side defers again
		post()
		submit(13)
		executed(11, 4, "after the lock side's submissions")

		for _, i := range []int{7, 4, 0, 5, 2, 6, 1, 3} {
			if got := h.Wait(tks[i].tk); got != tks[i].op {
				t.Fatalf("Wait(ticket of operation %d) = %d", tks[i].op, got)
			}
		}
		executed(14, 5, "after the last Wait")
		handletest.MustPanic(t, "Wait on a redeemed ticket", func() { h.Wait(tks[3].tk) })
		h.Flush()
		if err := hy.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
