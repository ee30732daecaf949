package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestTryWaitServesBehindParkedRound pins TryWait's wait on the
// constructions that complete a run on the spot (DESIGN "Bounded
// waits"): a TryWait on a pending run hands the run over, and waits for
// another thread's round parked in the object rather than report
// ErrNotReady. On CC-Synch, and the hybrid in delegation mode, the run
// goes on the chain as one cell behind the parked round, and TryWait
// spins on it until the round is released; in the hybrid's lock mode it
// queues for the gate the parked round holds. Once the round is
// released TryWait returns the run's value.
func TestTryWaitServesBehindParkedRound(t *testing.T) {
	for _, c := range []struct {
		name string
		// open builds the executor over obj and returns it with the
		// chain its runs go on, nil for a lock.
		open func(obj core.Object) (core.Executor, *core.CCSynch)
	}{
		{"ccsynch", func(obj core.Object) (core.Executor, *core.CCSynch) {
			c := core.NewCCSynch(obj, core.Options{MaxThreads: 2})
			return c, c
		}},
		{"hybrid/delegation", func(obj core.Object) (core.Executor, *core.CCSynch) {
			h := core.NewHybrid(obj, core.Options{MaxThreads: 2})
			core.FreezeHybrid(h)
			core.ForceHybridMode(h, true)
			return h, core.HybridBackend(h)
		}},
		{"hybrid/lock", func(obj core.Object) (core.Executor, *core.CCSynch) {
			h := core.NewHybrid(obj, core.Options{MaxThreads: 2})
			core.FreezeHybrid(h)
			return h, nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			handletest.Guard(t, func() {
				obj := &handletest.Object{Fuse: -1, Entered: make(chan struct{}, 1), Release: make(chan struct{})}
				ex, chain := c.open(obj)
				h, holder := core.MustHandle(ex), core.MustHandle(ex)
				held := make(chan uint64, 1)
				go func() { held <- holder.Apply(handletest.OpGate, 0) }() // operation 0, parked in the object
				<-obj.Entered
				tk, err := h.Submit(0, 0) // operation 1: pending in the handle's run
				if err != nil {
					t.Fatalf("Submit: %v", err)
				}
				type tried struct {
					v   uint64
					err error
				}
				done := make(chan tried, 1)
				var awaitLink func()
				if chain != nil {
					// Made before TryWait runs, so the link it waits for is
					// the run's cell.
					awaitLink = core.CCSynchLinks(chain)
				}
				go func() {
					v, err := h.TryWait(tk)
					done <- tried{v, err}
				}()
				if awaitLink != nil {
					awaitLink()
				}
				select {
				case r := <-done:
					t.Fatalf("TryWait returned (%d, %v) with the round ahead of it parked", r.v, r.err)
				default:
				}
				close(obj.Release)
				r := <-done
				if r.err != nil || r.v != 1 { // ErrNotReady above all
					t.Fatalf("TryWait = (%d, %v), want (1, nil)", r.v, r.err)
				}
				if v := <-held; v != 0 {
					t.Fatalf("holder's Apply = %d, want 0", v)
				}
				if err := ex.Close(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
