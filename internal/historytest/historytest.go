// Package historytest checks a counter's history in real time, across
// handles. Every increment adds one and returns the count it made, so
// each value names the operation that made it and linearizability has
// an exact check with no search (the tractable case of Gibbons &
// Korach, "Testing shared memories", SIAM J. Comput. 1997):
//
//   - the values are exactly 1..n;
//   - no operation that responded before another was invoked holds
//     the larger value.
//
// A posted increment returns no value; a read on another handle, after
// the Flush that covers it returned, must count it. Run drives each of
// the Handle's paths over one construction and checks what it records;
// times come from the monotonic clock.
package historytest

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"hybsync/internal/core"
)

// The counter's opcodes.
const (
	opInc  = 0 // add one, return the new count
	opRead = 1 // return the count
)

// counter is the history's object. Its state is a plain word, so a
// construction that breaks mutual exclusion also trips the race
// detector.
type counter struct{ n uint64 }

func (c *counter) DispatchBatch(reqs []core.Req, results []uint64) {
	for i, r := range reqs {
		if r.Op == opInc {
			c.n++
		}
		results[i] = c.n
	}
}

// op is one recorded operation: its invocation and response, in
// nanoseconds since the history began, and its value — the count an
// increment made or a read returned.
type op struct {
	inv, resp int64
	val       uint64
}

// history is what the workers of one run record: increments whose
// value they saw, increments whose value they did not (posted), and
// reads.
type history struct {
	incs, posted, reads []op
}

// check returns the first violation of the counter's real-time order
// in h, or nil.
func (h history) check() error {
	incs := slices.Clone(h.incs)
	slices.SortFunc(incs, func(a, b op) int { return cmp.Compare(a.val, b.val) })
	n := uint64(len(incs) + len(h.posted))
	for i, o := range incs {
		if o.val == 0 || o.val > n || i > 0 && o.val == incs[i-1].val {
			return fmt.Errorf("increment returned %d: want each of 1..%d at most once", o.val, n)
		}
		if len(h.posted) == 0 && o.val != uint64(i+1) {
			return fmt.Errorf("increments returned no %d: want exactly 1..%d", i+1, n)
		}
	}
	// Scan down from the largest value, keeping the earliest response
	// among the larger values seen so far.
	first := op{resp: math.MaxInt64}
	for i := len(incs) - 1; i >= 0; i-- {
		if o := incs[i]; o.inv > first.resp {
			return fmt.Errorf("increment %d (invoked at %d ns) follows increment %d, which responded at %d ns",
				o.val, o.inv, first.val, first.resp)
		}
		if incs[i].resp < first.resp {
			first = incs[i]
		}
	}
	// A read counts every increment that responded before it was
	// invoked, and none that was invoked after it responded.
	var resps, invs []int64
	for _, ops := range [][]op{incs, h.posted} {
		for _, o := range ops {
			resps, invs = append(resps, o.resp), append(invs, o.inv)
		}
	}
	slices.Sort(resps)
	slices.Sort(invs)
	for _, r := range h.reads {
		lo, _ := slices.BinarySearch(resps, r.inv)
		hi, _ := slices.BinarySearch(invs, r.resp)
		if r.val < uint64(lo) || r.val > uint64(hi) {
			return fmt.Errorf("read at [%d, %d] ns returned %d: %d increments had responded, %d been invoked",
				r.inv, r.resp, r.val, lo, hi)
		}
	}
	return nil
}

// worker is one goroutine's part of a history.
type worker struct {
	history
	base time.Time
	t    *testing.T
}

func (w *worker) now() int64 { return int64(time.Since(w.base)) }

// path is one way through the Handle to an increment: it makes ops
// increments on hs, the worker's handles, recording each.
type path struct {
	name string
	run  func(w *worker, hs [2]core.Handle, ops int)
}

// depth is the Submit+Wait window and the Post+Flush and ApplyBatch
// run.
const depth = 8

var paths = []path{
	{"Apply", func(w *worker, hs [2]core.Handle, ops int) {
		for range ops {
			inv := w.now()
			v := hs[0].Apply(opInc, 0)
			w.incs = append(w.incs, op{inv, w.now(), v})
		}
	}},
	{"Submit+Wait", func(w *worker, hs [2]core.Handle, ops int) {
		type pending struct {
			inv int64
			tk  core.Ticket
		}
		var window []pending
		wait := func() {
			v := hs[0].Wait(window[0].tk)
			w.incs = append(w.incs, op{window[0].inv, w.now(), v})
			window = window[1:]
		}
		for range ops {
			inv := w.now()
			tk, err := hs[0].Submit(opInc, 0)
			if err != nil {
				w.t.Errorf("Submit: %v", err)
				return
			}
			if window = append(window, pending{inv, tk}); len(window) == depth {
				wait()
			}
		}
		for len(window) > 0 {
			wait()
		}
	}},
	{"ApplyBatch", func(w *worker, hs [2]core.Handle, ops int) {
		var reqs [depth]core.Req
		var rets [depth]uint64
		for i := 0; i < ops; i += depth {
			n := min(depth, ops-i)
			inv := w.now()
			hs[0].ApplyBatch(reqs[:n], rets[:n])
			resp := w.now()
			for _, v := range rets[:n] {
				w.incs = append(w.incs, op{inv, resp, v})
			}
		}
	}},
	{"Post+Flush", func(w *worker, hs [2]core.Handle, ops int) {
		var invs [depth]int64
		for i := 0; i < ops; i += depth {
			n := min(depth, ops-i)
			for j := range n {
				invs[j] = w.now()
				if err := hs[0].Post(opInc, 0); err != nil {
					w.t.Errorf("Post: %v", err)
					return
				}
			}
			hs[0].Flush()
			resp := w.now()
			for _, inv := range invs[:n] {
				w.posted = append(w.posted, op{inv: inv, resp: resp})
			}
			inv := w.now()
			v := hs[1].Apply(opRead, 0)
			w.reads = append(w.reads, op{inv, w.now(), v})
		}
	}},
}

// Run runs every path as a subtest: workers goroutines make ops
// increments each, on handles of the executor open builds over a fresh
// counter (handles is how many it must hand out), and the history
// they record must check, and the counter end at the increments made.
func Run(t *testing.T, open func(t *testing.T, obj core.Object, handles int) core.Executor, workers, ops int) {
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			obj := &counter{}
			ex := open(t, obj, 2*workers)
			hs := make([][2]core.Handle, workers)
			for i := range hs {
				for j := range hs[i] {
					h, err := ex.NewHandle()
					if err != nil {
						t.Fatalf("NewHandle: %v", err)
					}
					hs[i][j] = h
				}
			}
			ws := make([]worker, workers)
			base := time.Now()
			var wg sync.WaitGroup
			for i := range ws {
				ws[i] = worker{base: base, t: t}
				wg.Add(1)
				go func(w *worker) {
					defer wg.Done()
					p.run(w, hs[i], ops)
				}(&ws[i])
			}
			wg.Wait()
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			var h history
			for _, w := range ws {
				h.incs = append(h.incs, w.incs...)
				h.posted = append(h.posted, w.posted...)
				h.reads = append(h.reads, w.reads...)
			}
			if err := h.check(); err != nil {
				t.Fatal(err)
			}
			if want := uint64(workers * ops); obj.n != want {
				t.Fatalf("counter reads %d after %d increments", obj.n, want)
			}
		})
	}
}
