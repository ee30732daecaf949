package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestHybridContractAcrossTransitions runs the handle-contract script
// (the one the root package runs over every algorithm) against the
// hybrid with a forced transition between every two steps: tickets,
// Post discards, bounded waits, FIFO behind outstanding tickets,
// draining Close and poison completion must not care which mode each
// step ran in, nor that the handle's one window holds lock-mode and
// delegated tickets side by side. The subtest is named for the
// delegation side of the edges.
func TestHybridContractAcrossTransitions(t *testing.T) {
	t.Run("hybcomb", func(t *testing.T) {
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
	})
}

// TestHybridWindowAcrossEdges walks one handle's window over both
// edges deterministically: submissions pending on the lock side when
// the mode is promoted execute — as one run — before the first
// delegated ship; submissions registered with another thread's
// combining round, owed by the backend when the mode is demoted, are
// settled before the first lock-side one; Posts ride along. Every
// ticket, waited out of order, redeems once with its own operation's
// result: per-handle FIFO by value.
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
		submit(3) // delegated (a lone combiner's own request), behind the lock side's run
		if obj.State != 4 {
			t.Fatalf("after the first delegated submission %d operations executed, want 4", obj.State)
		}

		held := make(chan uint64, 1)
		go func() { held <- holder.Apply(handletest.OpGate, 0) }() // operation 4: a round, parked in the object
		<-obj.Entered
		submit(5) // registered with the holder's round, owed by the backend
		post()
		submit(7)
		core.ForceHybridMode(hy, false)
		close(obj.Release)
		submit(8) // the lock side again, behind what the backend owes
		post()
		submit(10)

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
