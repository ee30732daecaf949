package core_test

import (
	"slices"
	"sync"
	"testing"
	"time"

	"hybsync/internal/core"
)

// TestOperationsAfterClose: Close seals an executor against new
// handles, and that is all it takes away. On every registered
// construction an operation issued on a handle opened before Close
// executes, through every way in — Apply, Submit and Wait, Post and
// Flush, ApplyBatch — and so does one racing Close. A construction
// whose Close strands a late request hangs, so each body runs under a
// bound of a few seconds.
func TestOperationsAfterClose(t *testing.T) {
	// counter is an object whose results number its operations: arg
	// is added and the new total returned. The race detector checks
	// that no two of its calls overlap.
	counter := func() (core.Object, *uint64) {
		var n uint64
		return core.Func(func(_, arg uint64) uint64 { n += arg; return n }), &n
	}
	for _, algo := range core.Algorithms() {
		t.Run(algo+"/after", func(t *testing.T) {
			obj, n := counter()
			ex := core.MustNewObject(algo, obj)
			h := core.MustHandle(ex)
			within(t, 5*time.Second, func() {
				if err := ex.Close(); err != nil {
					t.Error(err)
					return
				}
				if v := h.Apply(0, 1); v != 1 {
					t.Errorf("Apply after Close = %d, want 1", v)
				}
				tk, err := h.Submit(0, 1)
				if err != nil {
					t.Error(err)
					return
				}
				if v := h.Wait(tk); v != 2 {
					t.Errorf("Submit then Wait after Close = %d, want 2", v)
				}
				if err := h.Post(0, 1); err != nil {
					t.Error(err)
					return
				}
				h.Flush()
				rets := make([]uint64, 2)
				h.ApplyBatch([]core.Req{{Arg: 1}, {Arg: 1}}, rets)
				if rets[0] != 4 || rets[1] != 5 {
					t.Errorf("ApplyBatch after Post, Flush and Close = %v, want [4 5]", rets)
				}
				if *n != 5 {
					t.Errorf("the object counted %d operations, want 5", *n)
				}
				if err := ex.Close(); err != nil {
					t.Error(err)
				}
			})
		})
		t.Run(algo+"/racing", func(t *testing.T) {
			const clients, ops = 4, 200
			obj, n := counter()
			ex := core.MustNewObject(algo, obj, core.WithMaxThreads(clients))
			hs := make([]core.Handle, clients)
			for i := range hs {
				hs[i] = core.MustHandle(ex)
			}
			within(t, 5*time.Second, func() {
				got := make([][]uint64, clients)
				var started, wg sync.WaitGroup
				for i, h := range hs {
					started.Add(1)
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := range ops {
							got[i] = append(got[i], h.Apply(0, 1))
							if j == 0 {
								started.Done()
							}
						}
					}()
				}
				started.Wait() // every client is under way when Close starts
				if err := ex.Close(); err != nil {
					t.Error(err)
				}
				wg.Wait()
				all := slices.Concat(got...)
				slices.Sort(all)
				for i, v := range all {
					if v != uint64(i+1) {
						t.Errorf("the Applies racing Close returned %v..., want each of 1 to %d once", all[:i+1], clients*ops)
						return
					}
				}
				if *n != clients*ops {
					t.Errorf("the object counted %d operations, want %d", *n, clients*ops)
				}
			})
		})
	}
}

// within runs body on a goroutine of its own and fails the test if it
// has not returned after bound. body reports with t.Error, not
// t.Fatal.
func within(t *testing.T, bound time.Duration, body func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		body()
	}()
	select {
	case <-done:
	case <-time.After(bound):
		t.Fatalf("hung for %v", bound)
	}
}
