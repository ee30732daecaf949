// Concurrent pipelines over the in-package constructions. The
// single-handle contract cases that used to live here are checked for
// every construction by the handle-contract script (internal/handletest,
// run by the root package's TestHandleContract):
//
//	TestSubmitWaitFIFO, TestWaitOutOfOrder,
//	TestSubmitDeeperThanQueueCap   -> reverse-wait-past-queuecap
//	TestPostFlush                  -> post-submit-flush-wait
//	TestApplyInterleavedWithSubmit -> apply-and-batch-behind-tickets
//	TestSyncHandle                 -> every case, TestHandleContract/SyncHandle
//	TestWaitTwicePanics            -> the root package's TestTicketMisusePanics
package core

import (
	"sync"
	"testing"
)

// seqDispatch returns a dispatch handing out strictly increasing values
// — execution order is observable through the results.
func seqDispatch() (Func, *uint64) {
	state := new(uint64)
	return func(op, arg uint64) uint64 {
		v := *state
		*state = v + 1
		return v
	}, state
}

// forEachAsyncExecutor runs body once per in-package construction, each
// time with a fresh executor over a fresh sequence dispatch.
func forEachAsyncExecutor(t *testing.T, opts []Option, body func(t *testing.T, ex Executor, state *uint64)) {
	t.Helper()
	for _, name := range []string{"mpserver", "hybcomb"} {
		t.Run(name, func(t *testing.T) {
			d, state := seqDispatch()
			ex, err := NewObject(name, d, opts...)
			if err != nil {
				t.Fatalf("NewObject(%s): %v", name, err)
			}
			defer ex.Close()
			body(t, ex, state)
		})
	}
}

// TestConcurrentPipelines: several goroutines each drive their own
// pipelined handle; under the race detector this guards the
// mutual-exclusion claim on the asynchronous path, and the final state
// checks nothing was lost.
func TestConcurrentPipelines(t *testing.T) {
	const goroutines, per, depth = 4, 300, 5
	forEachAsyncExecutor(t, []Option{WithMaxThreads(goroutines)}, func(t *testing.T, ex Executor, state *uint64) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			h := MustHandle(ex)
			wg.Add(1)
			go func() {
				defer wg.Done()
				var win []Ticket
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
	})
}
