// Pipelines over CC-SYNCH's deferred runs. The single-handle
// contract cases that used to live here are checked for every
// construction by the handle-contract script (internal/handletest, run
// by the root package's TestHandleContract):
//
//	TestCCSynchOutOfOrderWait  -> ccsynch/reverse-wait-past-queuecap
//	TestCCSynchApplyAfterSubmit -> ccsynch/apply-and-batch-behind-tickets
//	TestSHMServerImmediate     -> shmserver, every case
package shmsync

import (
	"runtime"
	"slices"
	"sync"
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// seqDispatch hands out strictly increasing values so execution order
// is observable through the results.
func seqDispatch() (core.Func, *uint64) {
	state := new(uint64)
	return func(op, arg uint64) uint64 {
		v := *state
		*state = v + 1
		return v
	}, state
}

// TestCCSynchSubmitWaitFIFO: pipelined CC-Synch submissions complete in
// submission order, including when a run longer than MaxOps is served
// as its owner's own round.
func TestCCSynchSubmitWaitFIFO(t *testing.T) {
	d, state := seqDispatch()
	c := NewCCSynch(d, core.Options{MaxOps: 4}) // tiny MaxOps: rounds split, duty moves around
	defer c.Close()
	h, err := c.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	tickets := make([]core.Ticket, n)
	for i := range tickets {
		tickets[i], _ = h.Submit(0, 0)
	}
	var prev int64 = -1
	for i, tk := range tickets {
		v := int64(h.Wait(tk))
		if v <= prev {
			t.Fatalf("result %d = %d, not after %d", i, v, prev)
		}
		prev = v
	}
	if *state != n {
		t.Fatalf("state = %d, want %d", *state, n)
	}
}

// TestCCSynchPostFlushDepth: posting far beyond the in-flight bound
// settles old cells as it goes; Flush completes the rest.
func TestCCSynchPostFlushDepth(t *testing.T) {
	d, state := seqDispatch()
	c := NewCCSynch(d, core.Options{MaxOps: 8, QueueCap: 4})
	defer c.Close()
	h, err := c.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := h.Post(0, 0); err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	if *state != n {
		t.Fatalf("state after %d posts + Flush = %d", n, *state)
	}
}

// TestCCSynchConcurrentPipelines: goroutines pipeline concurrently, each
// run cell meeting the others' on the chain, and each flushes its own
// handle.
func TestCCSynchConcurrentPipelines(t *testing.T) {
	d, state := seqDispatch()
	c := NewCCSynch(d, core.Options{MaxOps: 6})
	defer c.Close()
	const goroutines, per, depth = 4, 250, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := c.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var win []core.Ticket
			prev := int64(-1)
			for i := 0; i < per; i++ {
				if len(win) == depth {
					v := int64(h.Wait(win[0]))
					if v <= prev {
						panic("per-handle FIFO violated")
					}
					prev = v
					win = win[1:]
				}
				tk, _ := h.Submit(0, 0)
				win = append(win, tk)
			}
			for _, tk := range win {
				v := int64(h.Wait(tk))
				if v <= prev {
					panic("per-handle FIFO violated in drain")
				}
				prev = v
			}
		}()
	}
	wg.Wait()
	if *state != goroutines*per {
		t.Fatalf("state = %d, want %d", *state, goroutines*per)
	}
}

// runLog records the length of every DispatchBatch run and returns
// execution indices; an opPark request parks the dispatching thread,
// inside its run, until release is closed.
type runLog struct {
	runs  []int
	state uint64

	entered, release chan struct{}
}

const opPark = 1

func (o *runLog) DispatchBatch(reqs []core.Req, results []uint64) {
	o.runs = append(o.runs, len(reqs))
	for i, r := range reqs {
		if r.Op == opPark {
			o.entered <- struct{}{}
			<-o.release
		}
		results[i] = o.state
		o.state++
	}
}

// TestCCSynchRunCellRespectsMaxOps: MaxOps counts requests, not cells.
// Two handles' runs of 3 queue behind a round parked in the object; the
// first run's owner inherits the duty and serves its own cell, and the
// second, which would take the round to 6 > MaxOps 4, ends the round
// and is handed the duty. A run of 6 on its own is its owner's own
// round, served whole.
func TestCCSynchRunCellRespectsMaxOps(t *testing.T) {
	handletest.Guard(t, func() {
		obj := &runLog{entered: make(chan struct{}), release: make(chan struct{})}
		c := NewCCSynch(obj, core.Options{MaxOps: 4})
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
		// Each run is linked into the chain before the next one publishes:
		// the cell a publisher fills is the tail it swapped out, whose next
		// it sets last.
		got := [2]chan []uint64{make(chan []uint64, 1), make(chan []uint64, 1)}
		last := c.tail.Load()
		for i, h := range []core.Handle{a, b} {
			go func() { got[i] <- window(h, 3) }()
			for last.next.Load() == nil {
				runtime.Gosched()
			}
			last = last.next.Load()
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
