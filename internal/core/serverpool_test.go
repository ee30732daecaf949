package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/handletest"
	"hybsync/internal/shard"
)

// Two executors on one server loop. Each keeps its own latch,
// drain-on-Close and late runs whatever else its loop serves, and the
// loop goes, with its count in the occupancy estimate, once both have
// closed.

// loopPairs are the executor pairs put on one loop: two MP-SERVERs, and
// an MP-SERVER beside an SHM-SERVER.
var loopPairs = [][2]string{{"mpserver", "mpserver"}, {"mpserver", "shmserver"}}

// onOneLoop builds pair[0] over a and pair[1] over b, on one server
// loop: GOMAXPROCS is held at 2 or less for the test, which leaves the
// pool one loop. An unclosed executor's loop left over from an earlier
// test can take one of them instead, and then the test fails.
func onOneLoop(t *testing.T, pair [2]string, a, b core.Object) [2]core.Executor {
	t.Helper()
	prev := runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 2))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	exs := [2]core.Executor{
		core.MustNewObject(pair[0], a, core.WithQueueCap(4)),
		core.MustNewObject(pair[1], b, core.WithQueueCap(4)),
	}
	if !core.SharesServerLoop(exs[0], exs[1]) {
		t.Fatalf("%s and %s are on different server loops", pair[0], pair[1])
	}
	return exs
}

// applyInOrder applies n operations on h and wants execution indices
// from..from+n-1: h is its object's only client.
func applyInOrder(t *testing.T, what string, h core.Handle, from, n int) {
	for i := from; i < from+n; i++ {
		if v := h.Apply(0, 0); v != uint64(i) {
			t.Errorf("%s: Apply %d = %d, want %d", what, i, v, i)
			return
		}
	}
}

// TestSharedLoopPoison: one executor faults mid-run while its loop
// serves the other. The victim replies zeros and reports the
// *PoisonError; the other's results stay right and its latch clear.
func TestSharedLoopPoison(t *testing.T) {
	const fuse, ops = 100, 2000
	for _, pair := range loopPairs {
		for victim := range 2 {
			t.Run(fmt.Sprintf("%s+%s/victim=%d", pair[0], pair[1], victim), func(t *testing.T) {
				handletest.Guard(t, func() {
					objs := [2]*runRec{{fuse: -1}, {fuse: -1}}
					objs[victim].fuse = fuse
					exs := onOneLoop(t, pair, objs[0], objs[1])
					healthy := 1 - victim
					hv, hh := core.MustHandle(exs[victim]), core.MustHandle(exs[healthy])
					var wg sync.WaitGroup
					wg.Add(1)
					go func() {
						defer wg.Done()
						contained(t, "the victim's Apply", func() {
							applyInOrder(t, "victim before the fault", hv, 0, fuse)
							for i := range 2 * fuse {
								if v := hv.Apply(0, 0); v != 0 {
									t.Errorf("victim: Apply %d after the fault = %d, want 0", i, v)
									return
								}
							}
						})
					}()
					applyInOrder(t, "healthy", hh, 0, ops)
					wg.Wait()
					wantPoisonError(t, "the victim's Err()", exs[victim].Err())
					if err := exs[healthy].Err(); err != nil {
						t.Errorf("the healthy executor's Err() = %v, want nil", err)
					}
					applyInOrder(t, "healthy after the fault", hh, ops, ops)
					wantPoisonError(t, "the victim's Close()", exs[victim].Close())
					if err := exs[healthy].Close(); err != nil {
						t.Errorf("the healthy executor's Close() = %v", err)
					}
				})
			})
		}
	}
}

// TestSharedLoopCloseUnderLoad: one executor closes while the other's
// client keeps its loop busy. On MP-SERVER a run sent before Close is
// served by the loop's drain and a run still pending executes late, on
// the redeeming thread; on SHM-SERVER Close returns once the slots are
// drained. Either way the loaded executor's results stay right, before
// and after.
func TestSharedLoopCloseUnderLoad(t *testing.T) {
	for _, pair := range loopPairs {
		for closed := range 2 {
			t.Run(fmt.Sprintf("%s+%s/closed=%d", pair[0], pair[1], closed), func(t *testing.T) {
				handletest.Guard(t, func() {
					objs := [2]*runRec{{fuse: -1}, {fuse: -1}}
					exs := onOneLoop(t, pair, objs[0], objs[1])
					hc, hl := core.MustHandle(exs[closed]), core.MustHandle(exs[1-closed])
					var stop atomic.Bool
					var applied atomic.Int64
					served := make(chan int, 1)
					go func() {
						n := 0
						for ; !stop.Load(); n++ {
							if v := hl.Apply(0, 0); v != uint64(n) {
								t.Errorf("loaded: Apply %d = %d, want %d", n, v, n)
								stop.Store(true)
								break
							}
							applied.Add(1)
						}
						served <- n
					}()
					applyInOrder(t, "closed, before Close", hc, 0, 10)
					for applied.Load() < 100 && !stop.Load() {
						runtime.Gosched()
					}
					next, tks := 10, []core.Ticket(nil)
					if pair[closed] == "mpserver" {
						// TryWait demands the window, so two operations go
						// out as one run the loop may not have served by
						// Close; two more stay pending in the window.
						tks = submitN(t, hc, 2)
						switch v, err := hc.TryWait(tks[0]); {
						case err == nil:
							if v != 10 {
								t.Fatalf("TryWait = %d, want 10", v)
							}
							next, tks = 11, tks[1:]
						case !errors.Is(err, core.ErrNotReady):
							t.Fatalf("TryWait = %v", err)
						}
						tks = append(tks, submitN(t, hc, 2)...)
					}
					if err := exs[closed].Close(); err != nil {
						t.Fatalf("Close = %v", err)
					}
					for i, tk := range tks {
						if v := hc.Wait(tk); v != uint64(next+i) {
							t.Errorf("Wait(ticket %d) after Close = %d, want %d", i, v, next+i)
						}
					}
					if got, want := objs[closed].state, uint64(next+len(tks)); got != want {
						t.Errorf("the closed object executed %d operations, want %d", got, want)
					}
					stop.Store(true)
					applyInOrder(t, "loaded, after the other's Close", hl, <-served, 100)
					if err := exs[1-closed].Close(); err != nil {
						t.Fatal(err)
					}
				})
			})
		}
	}
}

// TestSharedLoopLeavesNothing: the loop outlives the first executor's
// Close and ends with the second's. Each Close returns with its
// executor's counts out of the occupancy estimate, the last one's with
// the loop's too, and no goroutine is left behind.
func TestSharedLoopLeavesNothing(t *testing.T) {
	for _, pair := range loopPairs {
		for first := range 2 {
			t.Run(fmt.Sprintf("%s+%s/first=%d", pair[0], pair[1], first), func(t *testing.T) {
				handletest.Guard(t, func() {
					goroutines := runtime.NumGoroutine()
					servers, clients := backoff.Occupancy()
					want := func(when string, s, c int) {
						t.Helper()
						if gs, gc := backoff.Occupancy(); gs != servers+s || gc != clients+c {
							t.Errorf("%s: estimate reads (%d, %d), want (%d, %d)", when, gs, gc, servers+s, clients+c)
						}
					}
					objs := [2]*runRec{{fuse: -1}, {fuse: -1}}
					exs := onOneLoop(t, pair, objs[0], objs[1])
					for i, ex := range exs {
						applyInOrder(t, pair[i], core.MustHandle(ex), 0, 10)
					}
					want("open", 1, 2)
					if err := exs[first].Close(); err != nil {
						t.Fatal(err)
					}
					want("one closed", 1, 1)
					applyInOrder(t, "the other, after the first Close", core.MustHandle(exs[1-first]), 10, 10)
					want("one closed, a handle more", 1, 2)
					if err := exs[1-first].Close(); err != nil {
						t.Fatal(err)
					}
					want("both closed", 0, 0)
					for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("%d goroutines 10s after both Close calls, %d before the executors", runtime.NumGoroutine(), goroutines)
						}
					}
				})
			})
		}
	}
}

// BenchmarkServerShards is the server pool's layer: two goroutines
// increment a sharded counter whose every shard is a server
// construction, so the shards share the pool's loops.
func BenchmarkServerShards(b *testing.B) {
	for _, algo := range []string{"mpserver", "shmserver"} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(b *testing.B) {
				c, err := shard.NewCounter(shards, nil, func(_ int, obj core.Object) (core.Executor, error) {
					return core.NewObject(algo, obj)
				})
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				var hs [2]*shard.CounterHandle
				for i := range hs {
					if hs[i], err = c.NewHandle(); err != nil {
						b.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				b.ResetTimer()
				for g, h := range hs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := g; i < b.N; i += len(hs) {
							if _, err := h.Inc(uint64(i)); err != nil {
								panic(err)
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				if v := c.Value(); v != uint64(b.N) {
					b.Fatalf("counter reads %d after %d increments", v, b.N)
				}
			})
		}
	}
}
