// Pipelines over CC-SYNCH's deferred completion. The single-handle
// contract cases that used to live here are checked for every
// construction by the handle-contract script (internal/handletest, run
// by the root package's TestHandleContract):
//
//	TestCCSynchOutOfOrderWait  -> ccsynch/reverse-wait-past-queuecap
//	TestCCSynchApplyAfterSubmit -> ccsynch/apply-and-batch-behind-tickets
//	TestSHMServerImmediate     -> shmserver, every case
package shmsync

import (
	"sync"
	"testing"

	"hybsync/internal/core"
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
// submission order, including when the waiting thread inherits the
// combiner duty for its own deferred cells.
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

// TestCCSynchConcurrentPipelines: goroutines pipeline concurrently;
// each flushes its own handle (concurrently — a sequential flush of
// foreign handles could hold another pipeline's combiner duty).
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
