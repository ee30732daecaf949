// Transition tests for the adaptive hybrid construction: conservation
// and per-handle FIFO must hold across forced promote/demote cycles
// for every submission shape, and a panic landing mid-transition must
// poison cleanly (no deadlock, fast-failing submissions). That tickets
// stay redeemable across mode switches is part of the handle-contract
// script, which hybrid_contract_test.go runs with a transition between
// every two steps (TestHybridTicketsAcrossSwitch is now its
// reverse-wait-past-queuecap case, TestHybridWaitVariantsAcrossSwitch
// its bounded-waits case). In-package so the tests can force transition
// edges deterministically through flip and set the
// controller's thresholds, which are not options.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"hybsync/internal/pad"
)

// newFrozenHybrid builds a *Hybrid directly (the registry returns the
// Executor interface; the tests need the transition edges) with the
// controller disabled, so the forced transitions own the mode.
func newFrozenHybrid(obj Object, o Options) *Hybrid {
	h := NewHybrid(obj, o)
	FreezeHybrid(h)
	return h
}

// forceMode drives a transition edge under the controller's lock, the
// way the controller itself would. The CAS inside flip makes a stale
// force a no-op.
func forceMode(h *Hybrid, promote bool) {
	h.ctlMu.Lock()
	if promote {
		h.flip(hybModeLock, hybModeDeleg)
	} else {
		h.flip(hybModeDeleg, hybModeLock)
	}
	h.ctlMu.Unlock()
}

// toggler flips the hybrid's mode continuously until stop is closed,
// so every shape's operations keep landing on both sides of (and
// inside) transitions.
func toggler(h *Hybrid, stop <-chan struct{}, done *sync.WaitGroup) {
	defer done.Done()
	up := true
	for {
		select {
		case <-stop:
			return
		default:
		}
		forceMode(h, up)
		up = !up
		time.Sleep(100 * time.Microsecond)
	}
}

// counterObj returns a non-atomic counter object (mutual-exclusion
// violations corrupt the count and trip the race detector) plus a
// loader for the final state.
func counterObj() (Object, func() uint64) {
	var state uint64
	return Func(func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}), func() uint64 { return state }
}

// TestHybridTransitionsProperty is the conservation + FIFO property
// test: scalar, async-depth-8 and batch-32 submissions from four
// goroutines while transitions are forced at high frequency, at
// GOMAXPROCS 1 and 2. A counter object makes both properties visible
// in the return values: per-handle FIFO means each handle observes
// strictly increasing old-values, and a batch that executed as one
// unsplit run returns consecutive old-values.
func TestHybridTransitionsProperty(t *testing.T) {
	const goroutines = 4
	shapes := []struct {
		name string
		per  int // operations per goroutine
		run  func(t *testing.T, h Handle, per int)
	}{
		{"scalar", 1000, func(t *testing.T, h Handle, per int) {
			last := -1
			for i := 0; i < per; i++ {
				v := int(h.Apply(0, 0))
				if v <= last {
					t.Errorf("per-handle FIFO violated: observed %d after %d", v, last)
					return
				}
				last = v
			}
		}},
		{"async-8", 1000, func(t *testing.T, h Handle, per int) {
			const depth = 8
			var pending []Ticket
			last := -1
			settle := func(n int) {
				for len(pending) > n {
					v := int(h.Wait(pending[0]))
					pending = pending[1:]
					if v <= last {
						t.Errorf("per-handle FIFO violated: waited %d after %d", v, last)
						return
					}
					last = v
				}
			}
			for i := 0; i < per; i++ {
				tk, err := h.Submit(0, 0)
				if err != nil {
					t.Errorf("Submit: %v", err)
					return
				}
				pending = append(pending, tk)
				settle(depth - 1)
			}
			settle(0)
		}},
		{"batch-32", 320, func(t *testing.T, h Handle, per int) {
			// FIFO within and across batches is strictly-increasing
			// old-values; consecutive values would be too strong — a
			// delegated batch legitimately pipelines into the backend's
			// drain runs interleaved with other handles' requests (the
			// unsplit-run guarantee is pinned by
			// TestHybridBatchOneDispatchRun instead).
			const batch = 32
			reqs := make([]Req, batch)
			results := make([]uint64, batch)
			last := -1
			for i := 0; i < per/batch; i++ {
				h.ApplyBatch(reqs, results)
				for j := 0; j < batch; j++ {
					if int(results[j]) <= last {
						t.Errorf("per-handle FIFO violated: results[%d]=%d after %d",
							j, results[j], last)
						return
					}
					last = int(results[j])
				}
			}
		}},
	}
	for _, procs := range []int{1, 2} {
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("procs=%d/%s", procs, sh.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				obj, load := counterObj()
				h := newFrozenHybrid(obj, Options{MaxThreads: goroutines})
				togStop := make(chan struct{})
				var tg sync.WaitGroup
				tg.Add(1)
				go toggler(h, togStop, &tg)

				// Workers run the shape in chunks until both transition
				// edges have been crossed a few times under them, so
				// every property is exercised across real switches.
				var total, stop atomic.Uint64
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					hd, err := h.NewHandle()
					if err != nil {
						t.Fatalf("NewHandle: %v", err)
					}
					wg.Add(1)
					go func() {
						defer wg.Done()
						for stop.Load() == 0 && !t.Failed() {
							sh.run(t, hd, sh.per)
							total.Add(uint64(sh.per))
							hd.Flush()
						}
					}()
				}
				deadline := time.Now().Add(20 * time.Second)
				for {
					p, d := h.Transitions()
					if (p >= 3 && d >= 3) || t.Failed() || time.Now().After(deadline) {
						break
					}
					time.Sleep(200 * time.Microsecond)
				}
				stop.Store(1)
				wg.Wait()
				close(togStop)
				tg.Wait()
				if err := h.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				if t.Failed() {
					return
				}
				if got, want := load(), total.Load(); got != want {
					t.Fatalf("conservation violated: state = %d, want %d ops", got, want)
				}
				p, d := h.Transitions()
				if p < 3 || d < 3 {
					t.Fatalf("transitions did not exercise both edges: promotions=%d demotions=%d", p, d)
				}
			})
		}
	}
}

// runCounter is counterObj's counter that also counts the runs that
// reach it, one per DispatchBatch call.
type runCounter struct{ state, runs uint64 }

func (o *runCounter) DispatchBatch(reqs []Req, results []uint64) {
	o.runs++
	for i := range reqs {
		results[i] = o.state
		o.state++
	}
}

// TestHybridBatchOneDispatchRun pins the unsplit-run guarantee on both
// paths, deterministically: with a single participant, a lock-mode
// batch executes under one gate acquisition and a delegated batch
// becomes the combiner's own run — in both cases ONE DispatchBatch,
// observable as consecutive counter values.
func TestHybridBatchOneDispatchRun(t *testing.T) {
	obj := &runCounter{}
	h := newFrozenHybrid(obj, Options{})
	hd, err := h.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const batch = 32
	reqs := make([]Req, batch)
	results := make([]uint64, batch)
	for _, phase := range []struct {
		mode    string
		promote bool
	}{{"lock", false}, {"delegation", true}} {
		forceMode(h, phase.promote)
		runsBefore := obj.runs
		hd.ApplyBatch(reqs, results)
		for j := 1; j < batch; j++ {
			if results[j] != results[j-1]+1 {
				t.Fatalf("%s mode: batch split: results[%d]=%d after results[%d]=%d",
					phase.mode, j, results[j], j-1, results[j-1])
			}
		}
		if runs := obj.runs - runsBefore; runs != 1 {
			t.Fatalf("%s mode: batch took %d dispatch runs, want 1", phase.mode, runs)
		}
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridDemotesUnderOneHandlesBatches runs the live controller on
// the edge where a round's own run is a batch: promoted, with one
// handle's ApplyBatch(8) calls its only traffic, every combining round
// serves its owner's run and combines nothing for anyone, so each
// window's combining rate is 1 and the hybrid must demote after
// hybridQuietWindows windows. Read as run length, the same traffic
// measures 8 requests per run and the hybrid never demotes.
func TestHybridDemotesUnderOneHandlesBatches(t *testing.T) {
	obj, _ := counterObj()
	h := NewHybrid(obj, Options{})
	hd, err := h.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	forceMode(h, true)
	const batch = 8
	reqs := make([]Req, batch)
	results := make([]uint64, batch)
	// A batch is one round, so a window is h.window batches; one spare
	// window covers the ticks' granularity.
	for i := uint64(0); i < (hybridQuietWindows+1)*h.window; i++ {
		hd.ApplyBatch(reqs, results)
	}
	if p, d := h.Transitions(); p != 1 || d != 1 {
		t.Fatalf("after %d windows of one handle's batches: promotions=%d demotions=%d, want 1 and 1",
			hybridQuietWindows+1, p, d)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHybridPoisonMidTransition is the chaos test: a panic landing
// while transitions are being forced must poison exactly once, unwedge
// every participant (zeros), and fail subsequent submissions fast. The
// test completing at all is the no-deadlock assertion.
func TestHybridPoisonMidTransition(t *testing.T) {
	t.Run("ccsynch", func(t *testing.T) { // named for the delegation side of the edges

		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
		const goroutines, per, fuse = 4, 4000, 5000
		var state uint64
		obj := Func(func(op, arg uint64) uint64 {
			if state == fuse {
				panic("hybrid chaos fault")
			}
			state++
			return state - 1
		})
		h := newFrozenHybrid(obj, Options{MaxThreads: goroutines})
		stop := make(chan struct{})
		var tg sync.WaitGroup
		tg.Add(1)
		go toggler(h, stop, &tg)

		// Every handle exists before any goroutine runs: the fuse may
		// trip before a late NewHandle, which then fails by contract.
		handles := make([]Handle, goroutines)
		for g := range handles {
			hd, err := h.NewHandle()
			if err != nil {
				t.Fatalf("NewHandle: %v", err)
			}
			handles[g] = hd
		}
		var wg sync.WaitGroup
		for _, hd := range handles {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var pending []Ticket
				for i := 0; i < per; i++ {
					if i%3 == 0 {
						tk, err := hd.Submit(0, 0)
						if err != nil {
							break // poisoned: fast-fail is the contract
						}
						pending = append(pending, tk)
						if len(pending) > 4 {
							hd.Wait(pending[0])
							pending = pending[1:]
						}
					} else {
						hd.Apply(0, 0)
					}
				}
				for _, tk := range pending {
					hd.Wait(tk) // zeros after the fault; must not hang
				}
				hd.Flush()
			}()
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("participants wedged after mid-transition poison")
		}
		close(stop)
		tg.Wait()

		if err := h.Err(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("Err() = %v, want ErrPoisoned", err)
		}
		hd, err := h.NewHandle()
		if err == nil {
			t.Fatal("NewHandle succeeded on a poisoned executor")
		}
		var pe *PoisonError
		if !errors.As(err, &pe) {
			t.Fatalf("NewHandle error %v is not a *PoisonError", err)
		}
		_ = hd
		if err := h.Close(); !errors.Is(err, ErrPoisoned) {
			t.Fatalf("Close() = %v, want the poison error", err)
		}
		if state != fuse {
			t.Fatalf("object advanced past the fuse: state = %d", state)
		}
	})
}

// TestHybridAdaptsUnderContention exercises the controller itself (no
// forced edges): contended traffic from four goroutines must promote,
// and a subsequent single-threaded quiescent phase must demote.
func TestHybridAdaptsUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	obj, _ := counterObj()
	h := NewHybrid(obj, Options{MaxThreads: 8})
	h.window, h.promoteAt = 256, 0.05

	// Contended phase: hammer until the controller promotes. Handles
	// are created once and handed to one goroutine per burst (handles
	// forbid concurrent use, not sequential reuse).
	const burst = 2000
	deadline := time.Now().Add(30 * time.Second)
	handles := make([]Handle, 4)
	for g := range handles {
		hd, err := h.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		handles[g] = hd
	}
	var wg sync.WaitGroup
	for promoted := false; !promoted; {
		if time.Now().After(deadline) {
			t.Fatal("controller never promoted under contention")
		}
		for _, hd := range handles {
			wg.Add(1)
			go func(hd Handle) {
				defer wg.Done()
				for i := 0; i < burst; i++ {
					hd.Apply(0, 0)
				}
			}(hd)
		}
		wg.Wait()
		p, _ := h.Transitions()
		promoted = p > 0
	}

	// Quiescent phase: one thread, scalar ops — mean run length falls
	// to 1, and after the hysteresis windows the controller demotes.
	hd, err := h.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for time.Now().Before(deadline) {
		for i := 0; i < 1024; i++ {
			hd.Apply(0, 0)
		}
		if _, d := h.Transitions(); d > 0 {
			if err := h.Close(); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatal("controller never demoted at quiescence")
}

// TestHybridStatsScalarInvariant: the scalar counter identity rounds + combined == ops must survive transitions
// (each lock-mode op is a round of its own; delegated ops follow
// hybcomb's accounting).
func TestHybridStatsScalarInvariant(t *testing.T) {
	const goroutines, per = 4, 2000
	obj, load := counterObj()
	h := newFrozenHybrid(obj, Options{MaxThreads: goroutines})
	stop := make(chan struct{})
	var tg sync.WaitGroup
	tg.Add(1)
	go toggler(h, stop, &tg)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		hd, err := h.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				hd.Apply(0, 0)
			}
		}()
	}
	wg.Wait()
	close(stop)
	tg.Wait()
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	rounds, combined := h.Stats()
	if rounds+combined != load() {
		t.Fatalf("rounds (%d) + combined (%d) = %d, want ops = %d",
			rounds, combined, rounds+combined, load())
	}
	if r := h.Retries(); r == 0 && runtime.NumCPU() > 1 {
		t.Logf("note: no contended acquisitions observed (retries=0)")
	}
}

// TestHybridLayout machine-verifies the padding of the hybrid's
// per-handle transport, like the spin and hybcomb layout tests (its
// counter cell is inside its Pipe, which TestHandlesLineAligned
// checks), and that the controller's lock, which every tick writes, is
// at least a line away from mode, which every operation loads,
// wherever the executor is placed.
func TestHybridLayout(t *testing.T) {
	if size := unsafe.Sizeof(hybTransport{}); !pad.Padded(size) {
		t.Errorf("hybTransport is %d bytes, not a whole number of cache lines", size)
	}
	var h Hybrid
	modeEnd := unsafe.Offsetof(h.mode) + unsafe.Sizeof(h.mode)
	if gap := unsafe.Offsetof(h.ctlMu) - modeEnd; gap < pad.CacheLine {
		t.Errorf("ctlMu starts %d bytes after mode ends, want at least a line", gap)
	}
}
