// CC-SYNCH: the sequential and concurrent algorithm, pipelines over its
// deferred runs, and the cell layout. The single-handle contract cases
// that used to live here are checked for every construction by the
// handle-contract script (internal/handletest, run by the root
// package's TestHandleContract):
//
//	TestCCSynchOutOfOrderWait  -> ccsynch/reverse-wait-past-queuecap
//	TestCCSynchApplyAfterSubmit -> ccsynch/apply-and-batch-behind-tickets
//	TestSHMServerImmediate     -> shmserver, every case
package core

import (
	"sync"
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

func TestCCSynchSequential(t *testing.T) {
	var state uint64
	c := NewCCSynch(Func(func(op, arg uint64) uint64 {
		old := state
		state += arg
		return old
	}), Options{MaxOps: 200})
	h := MustHandle(c)
	if got := h.Apply(0, 5); got != 0 {
		t.Fatalf("Apply = %d, want 0", got)
	}
	if got := h.Apply(0, 3); got != 5 {
		t.Fatalf("Apply = %d, want 5", got)
	}
	if state != 8 {
		t.Fatalf("state = %d", state)
	}
}

func TestCCSynchConcurrent(t *testing.T) {
	for _, maxOps := range []int32{1, 3, 200} {
		var state uint64
		c := NewCCSynch(Func(func(op, arg uint64) uint64 {
			v := state
			state = v + 1
			return v
		}), Options{MaxOps: maxOps})
		const goroutines, per = 12, 3000
		var wg sync.WaitGroup
		seen := make([]map[uint64]bool, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := MustHandle(c)
				seen[g] = make(map[uint64]bool, per)
				for i := 0; i < per; i++ {
					seen[g][h.Apply(0, 0)] = true
				}
			}(g)
		}
		wg.Wait()
		if state != goroutines*per {
			t.Fatalf("maxOps=%d: state = %d, want %d", maxOps, state, goroutines*per)
		}
		union := make(map[uint64]bool)
		for _, m := range seen {
			for v := range m {
				if union[v] {
					t.Fatalf("maxOps=%d: duplicate pre-value %d", maxOps, v)
				}
				union[v] = true
			}
		}
		rounds, combined := c.Stats()
		if rounds+combined != goroutines*per {
			t.Fatalf("maxOps=%d: rounds %d + combined %d != %d ops", maxOps, rounds, combined, goroutines*per)
		}
	}
}

// TestCCSynchSubmitWaitFIFO: pipelined CC-Synch submissions complete in
// submission order, including when a run longer than MaxOps is served
// as its owner's own round.
func TestCCSynchSubmitWaitFIFO(t *testing.T) {
	d, state := seqDispatch()
	c := NewCCSynch(d, Options{MaxOps: 4}) // tiny MaxOps: rounds split, duty moves around
	defer c.Close()
	h, err := c.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	tickets := make([]Ticket, n)
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
	c := NewCCSynch(d, Options{MaxOps: 8, QueueCap: 4})
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
	c := NewCCSynch(d, Options{MaxOps: 6})
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
}

// TestNodeLayout: a chain cell is exactly one cache line, which is why
// a run cell carries one pointer to its run rather than its slices.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(ccNode{}); got != pad.CacheLine {
		t.Fatalf("ccNode is %d bytes, want one %d-byte cache line", got, pad.CacheLine)
	}
}
