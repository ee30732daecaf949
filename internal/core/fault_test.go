package core_test

import (
	"errors"
	"testing"
	"time"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// Fault containment on the dispatch paths that only a fault test can
// reach: a server's requests drained by their own client after Close,
// a combiner serving another handle's registration, and the hybrid's
// delegated side. Every Object.DispatchBatch goes through the
// construction's PoisonLatch, so a panic there poisons the executor,
// every waiter completes with zeros, and the panic never reaches a
// caller.

// contained runs f and fails the test if a panic escapes it.
func contained(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: the fault escaped the latch: %v", what, r)
		}
	}()
	f()
}

func wantPoisonError(t *testing.T, what string, err error) {
	t.Helper()
	var pe *core.PoisonError
	if !errors.As(err, &pe) {
		t.Fatalf("%s = %v, want the *PoisonError", what, err)
	}
}

// TestMPServerLateRunPoisons: a run still pending when the executor
// closes executes on the thread that redeems it, and a fault there is
// contained as on the server: the run's tickets redeem zeros and the
// handle and executor report the *PoisonError.
func TestMPServerLateRunPoisons(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: 1}
		s := core.NewMPServer(obj, core.Options{QueueCap: 4})
		h := core.MustHandle(s)
		tks := submitN(t, h, 3)
		if err := s.Close(); err != nil {
			t.Fatalf("Close = %v with the run still pending", err)
		}
		contained(t, "Wait after Close", func() {
			for i, tk := range tks {
				if v := h.Wait(tk); v != 0 {
					t.Fatalf("Wait(ticket %d) = %d after a fault in its run, want 0", i, v)
				}
			}
		})
		wantPoisonError(t, "Err()", h.Err())
		wantPoisonError(t, "Close()", s.Close())
		if obj.state != 1 {
			t.Errorf("the object executed %d operations, want the one before the fault", obj.state)
		}
	})
}

// TestSHMServerLateApplyPoisons: once Close has let the server loop go,
// a request published in a slot is served by its own client's drain,
// and a fault there is contained as on the server: the faulted Apply
// and every later operation complete with zeros, and the handles and
// executor report the *PoisonError.
func TestSHMServerLateApplyPoisons(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: 1}
		s := core.NewSHMServer(obj, core.Options{MaxThreads: 2})
		a, b := core.MustHandle(s), core.MustHandle(s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		contained(t, "Apply after Close", func() {
			if v := a.Apply(0, 0); v != 0 {
				t.Fatalf("a's Apply = %d, want execution index 0", v)
			}
			if v := b.Apply(0, 0); v != 0 {
				t.Fatalf("b's Apply, which faults, = %d, want 0", v)
			}
			if v := a.Apply(0, 0); v != 0 {
				t.Fatalf("a's Apply after the fault = %d, want 0", v)
			}
			_, err := b.Submit(0, 0)
			wantPoisonError(t, "b's Submit after the fault", err)
		})
		wantPoisonError(t, "a's Err()", a.Err())
		wantPoisonError(t, "b's Err()", b.Err())
		wantPoisonError(t, "Close()", s.Close())
		if obj.state != 1 {
			t.Errorf("the object executed %d operations, want the one before the fault", obj.state)
		}
	})
}

// TestHybCombServedRegistrationPoisons: the fault lands on a request
// that handle b registered with the round handle a owns, so a's
// combiner dispatches it while serving b. The executor is poisoned, b's
// ticket and both handles' later operations complete with zeros, and
// neither handle hangs or sees the panic.
func TestHybCombServedRegistrationPoisons(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: 1, entered: make(chan struct{}), release: make(chan struct{})}
		ex := core.NewHybComb(obj, core.Options{MaxThreads: 2})
		a, b := core.MustHandle(ex), core.MustHandle(ex)
		escaped := make(chan any, 1)
		go func() {
			defer func() { escaped <- recover() }()
			a.Apply(opPark, 0)
		}()
		<-obj.entered
		tk, err := b.Submit(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.TryWait(tk); !errors.Is(err, core.ErrNotReady) {
			t.Fatalf("TryWait with a's round parked = %v, want ErrNotReady (registered with it)", err)
		}
		close(obj.release)
		if r := <-escaped; r != nil {
			t.Fatalf("a's combining round: the fault escaped the latch: %v", r)
		}
		v, err := b.WaitTimeout(tk, 10*time.Second)
		if v != 0 {
			t.Fatalf("b's faulted request redeemed %d, want 0", v)
		}
		wantPoisonError(t, "b's WaitTimeout", err)
		for name, h := range map[string]core.Handle{"a": a, "b": b} {
			if v := h.Apply(0, 0); v != 0 {
				t.Errorf("%s's Apply after the fault = %d, want 0", name, v)
			}
			wantPoisonError(t, name+"'s Err()", h.Err())
		}
		wantPoisonError(t, "Close()", ex.Close())
		if obj.state != 1 {
			t.Errorf("the object executed %d operations, want a's one before the fault", obj.state)
		}
	})
}

// TestHybridDelegatedFaultPoisonsTheHybrid: in delegation mode the
// backend dispatches through hybGate, which dispatches through the
// hybrid's latch. A fault there poisons the hybrid and only the hybrid:
// the backend's own latch never sees it.
func TestHybridDelegatedFaultPoisonsTheHybrid(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runRec{fuse: 1}
		h := core.NewHybrid(obj, core.Options{})
		core.FreezeHybrid(h)
		core.ForceHybridMode(h, true)
		hd := core.MustHandle(h)
		if v := hd.Apply(0, 0); v != 0 {
			t.Fatalf("Apply = %d, want 0", v)
		}
		contained(t, "delegated Apply", func() {
			if v := hd.Apply(0, 0); v != 0 {
				t.Fatalf("faulted Apply = %d, want 0", v)
			}
		})
		wantPoisonError(t, "the hybrid's Err()", h.Err())
		wantPoisonError(t, "the handle's Err()", hd.Err())
		if err := core.HybridBackend(h).Err(); err != nil {
			t.Fatalf("the backend's Err() = %v, want nil: the fault belongs to the hybrid's latch alone", err)
		}
		if _, err := hd.Submit(0, 0); !errors.Is(err, core.ErrPoisoned) {
			t.Errorf("Submit after the fault = %v, want ErrPoisoned", err)
		}
		if v := hd.Apply(0, 0); v != 0 {
			t.Errorf("Apply after the fault = %d, want 0", v)
		}
		wantPoisonError(t, "Close()", h.Close())
		if obj.state != 1 {
			t.Errorf("the object executed %d operations, want the one before the fault", obj.state)
		}
	})
}

// TestStallWatchdog: with a stall budget set, every client wait a
// construction arms reports a wedged object once, through the
// process-wide stall handler, under the waiting site's own label. A
// holder's Apply parks the object. On a server the holder then waits
// for the reply itself; on a combining construction it is the round's
// combiner, parked inside DispatchBatch, and waiters block in Apply in
// turn: on the combiner's response or cell service, and, with the round
// full at MaxOps 1, as the next combiner awaiting the parked round. The
// hybrid in delegation mode waits as its backend does and reports
// ccsynch's label.
func TestStallWatchdog(t *testing.T) {
	const budget, bound = 20 * time.Millisecond, 5 * time.Second
	combining := []string{"hybcomb: client awaiting combiner response", "hybcomb: combiner awaiting predecessor round"}
	chain := []string{"ccsynch: waiting for cell service"}
	byName := func(algo string) func(core.Object) core.Executor {
		return func(obj core.Object) core.Executor {
			return core.MustNewObject(algo, obj, core.WithMaxOps(1), core.WithStallTimeout(budget))
		}
	}
	for _, c := range []struct {
		name   string
		open   func(core.Object) core.Executor
		holder string   // the holder's own report, if it waits
		waits  []string // one waiter per label, started in this order
	}{
		{"mpserver", byName("mpserver"), "mpserver: client awaiting response", nil},
		{"shmserver", byName("shmserver"), "shmserver: waiting for server sweep", nil},
		{"ccsynch", byName("ccsynch"), "", chain},
		{"hybcomb", byName("hybcomb"), "", combining},
		{"hybrid-forced-delegation", func(obj core.Object) core.Executor {
			h := core.NewHybrid(obj, core.Options{MaxOps: 1, StallTimeout: budget})
			core.FreezeHybrid(h)
			core.ForceHybridMode(h, true)
			return h
		}, "", chain},
	} {
		t.Run(c.name, func(t *testing.T) {
			// The handler runs on the waiting goroutine and must not block it:
			// room for a report from every wait the case starts, and a spare.
			fired := make(chan string, len(c.waits)+2)
			backoff.SetStallHandler(func(label string, _ time.Duration) { fired <- label })
			defer backoff.SetStallHandler(nil)
			report := func(want string) {
				t.Helper()
				select {
				case got := <-fired:
					if got != want {
						t.Errorf("stall reported as %q, want %q", got, want)
					}
				case <-time.After(bound):
					t.Errorf("no stall report for %q within %v on a %v budget", want, bound, budget)
				}
			}
			handletest.Guard(t, func() {
				obj := &runRec{fuse: -1, entered: make(chan struct{}), release: make(chan struct{})}
				ex := c.open(obj)
				done := make(chan struct{}, len(c.waits)+1)
				apply := func(h core.Handle, op uint64) { h.Apply(op, 0); done <- struct{}{} }
				go apply(core.MustHandle(ex), opPark)
				<-obj.entered
				if c.holder != "" {
					report(c.holder)
				}
				for _, want := range c.waits {
					go apply(core.MustHandle(ex), 0)
					report(want)
				}
				close(obj.release)
				for range len(c.waits) + 1 {
					<-done
				}
				select {
				case got := <-fired:
					t.Errorf("a second stall report, %q: each wedged wait reports once", got)
				default:
				}
				if err := ex.Close(); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
