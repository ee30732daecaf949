// Liveness and fault-containment tests: every test runs under a
// watchdog that dumps all goroutine stacks and dies if the scenario
// wedges, so a deadlock is a loud failure instead of a hung `go test`.
// The scenarios cover the five construction families (mpserver,
// hybcomb, ccsynch, shmserver, mcs-lock) across the scalar, async and
// batch paths.
package chaos_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hybsync"
	"hybsync/internal/backoff"
	"hybsync/internal/chaos"
)

// algos is one representative per construction family: the three
// paper constructions, the RCL-style baseline and a queue lock.
var algos = []string{"mpserver", "hybcomb", "ccsynch", "shmserver", "mcs-lock"}

// watchdog arms a liveness bound on the calling test: if cancel is not
// called within d, the process dies with a full goroutine dump. Panic
// from the watchdog goroutine (not t.Fatal, which must not be called
// off the test goroutine) is exactly what we want — it prints every
// stack, including the wedged ones.
func watchdog(t *testing.T, d time.Duration) (cancel func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
		case <-time.After(d):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			panic(fmt.Sprintf("%s: liveness watchdog fired after %v; goroutine dump:\n%s",
				t.Name(), d, buf[:n]))
		}
	}()
	return func() { close(done) }
}

// counter is the conservation object: DispatchBatch runs in mutual
// exclusion, so the plain field is safe, and state counts exactly the
// operations that executed.
type counter struct{ state uint64 }

func (c *counter) DispatchBatch(reqs []hybsync.Req, results []uint64) {
	for i := range reqs {
		results[i] = c.state
		c.state++
	}
}

// paths drives one handle through each submission shape the contract
// offers. Each path runs iters operations (or stops early once the
// executor reports a fault) and flushes before returning, so no ticket
// is left outstanding when the executor closes.
var paths = map[string]func(h hybsync.Handle, iters int){
	"scalar": func(h hybsync.Handle, iters int) {
		for i := 0; i < iters && h.Err() == nil; i++ {
			h.Apply(0, 0)
		}
	},
	"async8": func(h hybsync.Handle, iters int) {
		const depth = 8
		win := make([]hybsync.Ticket, 0, depth)
		for i := 0; i < iters; i++ {
			if len(win) == depth {
				h.Wait(win[0])
				win = win[:copy(win, win[1:])]
			}
			tk, err := h.Submit(0, 0)
			if err != nil {
				break
			}
			win = append(win, tk)
		}
		for _, tk := range win {
			h.Wait(tk)
		}
		h.Flush()
	},
	"batch32": func(h hybsync.Handle, iters int) {
		reqs := make([]hybsync.Req, 32)
		rets := make([]uint64, 32)
		for i := 0; i < iters && h.Err() == nil; i += len(reqs) {
			h.ApplyBatch(reqs, rets)
		}
	},
}

// TestPanicPoisonsNotDeadlocks is the tentpole scenario: an injected
// object panic in any construction must leave the process alive,
// unblock every in-flight waiter, and turn every subsequent operation
// into a fast ErrPoisoned — never a deadlock, never a silent hang.
func TestPanicPoisonsNotDeadlocks(t *testing.T) {
	for _, algo := range algos {
		for name, drive := range paths {
			t.Run(algo+"/"+name, func(t *testing.T) {
				defer watchdog(t, 30*time.Second)()
				obj := chaos.PanicOnNth(&counter{}, 50)
				ex, err := hybsync.NewObject(algo, obj,
					hybsync.WithMaxThreads(16), hybsync.WithQueueCap(8))
				if err != nil {
					t.Fatalf("NewObject(%s): %v", algo, err)
				}
				// Every handle exists before any worker runs: the fuse is
				// 50 operations, and NewHandle on a poisoned executor fails.
				const workers = 4
				var handles [workers]hybsync.Handle
				for w := range handles {
					handles[w] = hybsync.MustHandle(ex)
				}
				var wg sync.WaitGroup
				for _, h := range handles {
					wg.Add(1)
					go func() {
						defer wg.Done()
						drive(h, 4096)
					}()
				}
				wg.Wait()

				// Every worker came back, so nobody deadlocked. The fault
				// fired (4 workers × 4096 ops >> 50), so the executor must
				// be poisoned with the injected panic's value and stack.
				err = ex.Err()
				if !errors.Is(err, hybsync.ErrPoisoned) {
					t.Fatalf("Err() = %v, want ErrPoisoned", err)
				}
				var pe *hybsync.PoisonError
				if !errors.As(err, &pe) {
					t.Fatalf("Err() = %v, want *PoisonError", err)
				}
				if pe.Value == nil || len(pe.Stack) == 0 {
					t.Fatalf("PoisonError missing panic value or stack: %+v", pe)
				}
				if _, err := ex.NewHandle(); !errors.Is(err, hybsync.ErrPoisoned) {
					t.Errorf("NewHandle after poison = %v, want ErrPoisoned", err)
				}
				if err := ex.Close(); !errors.Is(err, hybsync.ErrPoisoned) {
					t.Errorf("Close after poison = %v, want ErrPoisoned", err)
				}
			})
		}
	}
}

// TestCloseWithInflight is the close-vs-in-flight matrix: one goroutine
// submits 1..QueueCap operations, Close lands from another goroutine
// while they are outstanding, and every ticket must still redeem — the
// draining-Close half of the fault model.
func TestCloseWithInflight(t *testing.T) {
	const queueCap = 8
	for _, algo := range algos {
		for depth := 1; depth <= queueCap; depth++ {
			t.Run(fmt.Sprintf("%s/depth%d", algo, depth), func(t *testing.T) {
				defer watchdog(t, 30*time.Second)()
				obj := &counter{}
				ex, err := hybsync.NewObject(algo, obj,
					hybsync.WithMaxThreads(4), hybsync.WithQueueCap(queueCap))
				if err != nil {
					t.Fatalf("NewObject(%s): %v", algo, err)
				}
				h := hybsync.MustHandle(ex)
				ready := make(chan []hybsync.Ticket, 1)
				got := make(chan uint64, 1)
				go func() {
					tks := make([]hybsync.Ticket, 0, depth)
					for i := 0; i < depth; i++ {
						tk, err := h.Submit(0, 0)
						if err != nil {
							break
						}
						tks = append(tks, tk)
					}
					ready <- tks
					var sum uint64
					for _, tk := range tks {
						h.Wait(tk)
						sum++
					}
					got <- sum
				}()
				tks := <-ready
				if err := ex.Close(); err != nil {
					t.Fatalf("Close with %d in flight: %v", len(tks), err)
				}
				if redeemed := <-got; redeemed != uint64(len(tks)) {
					t.Fatalf("redeemed %d of %d in-flight tickets", redeemed, len(tks))
				}
				if obj.state != uint64(len(tks)) {
					t.Fatalf("object executed %d ops, %d were submitted before Close",
						obj.state, len(tks))
				}
			})
		}
	}
}

// TestChaosConservation injects delays and schedule perturbation — no
// faults — and checks that exactly the submitted operations execute:
// the chaos machinery itself must not lose or duplicate work.
func TestChaosConservation(t *testing.T) {
	for _, algo := range algos {
		t.Run(algo, func(t *testing.T) {
			defer watchdog(t, 60*time.Second)()
			defer chaos.NewPerturber(42).Install()()
			base := &counter{}
			obj := chaos.Delay(base, 7, 64, 100*time.Microsecond)
			ex, err := hybsync.NewObject(algo, obj,
				hybsync.WithMaxThreads(16), hybsync.WithQueueCap(8))
			if err != nil {
				t.Fatalf("NewObject(%s): %v", algo, err)
			}
			const workers, iters = 4, 512
			var wg sync.WaitGroup
			pathNames := []string{"scalar", "async8", "batch32"}
			for w := 0; w < workers; w++ {
				h := hybsync.MustHandle(ex)
				drive := paths[pathNames[w%len(pathNames)]]
				wg.Add(1)
				go func() {
					defer wg.Done()
					drive(h, iters)
				}()
			}
			wg.Wait()
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if want := uint64(workers * iters); base.state != want {
				t.Fatalf("conservation: %d ops executed, want %d", base.state, want)
			}
		})
	}
}

// TestCorruptFires sanity-checks the corruption wrapper the way a
// caller-side invariant check would use it: corrupted results differ
// from the healthy object's, and Poison condemns the executor by hand.
func TestCorruptFires(t *testing.T) {
	defer watchdog(t, 10*time.Second)()
	ex, err := hybsync.NewObject("mpserver", chaos.Corrupt(&counter{}, 1, 1<<63))
	if err != nil {
		t.Fatal(err)
	}
	h := hybsync.MustHandle(ex)
	if v := h.Apply(0, 0); v < 1<<63 {
		t.Fatalf("Apply through Corrupt(every=1) = %d, want corrupted high bit", v)
	}
	// The caller detected the corruption; condemn the executor.
	ex.(hybsync.Poisonable).Poison("result corruption detected")
	if err := ex.Err(); !errors.Is(err, hybsync.ErrPoisoned) {
		t.Fatalf("Err after manual Poison = %v, want ErrPoisoned", err)
	}
	if err := ex.Close(); !errors.Is(err, hybsync.ErrPoisoned) {
		t.Fatalf("Close after manual Poison = %v, want ErrPoisoned", err)
	}
}

// blockingObject parks every dispatch until released — the wedged
// object the bounded-wait API exists for.
type blockingObject struct {
	release chan struct{}
	inner   counter
}

func (b *blockingObject) DispatchBatch(reqs []hybsync.Req, results []uint64) {
	<-b.release
	b.inner.DispatchBatch(reqs, results)
}

// TestBoundedWaits exercises TryWait and WaitTimeout against a server
// wedged inside the object: both must return without the result (and
// leave the ticket redeemable), and a later Wait must still deliver
// once the object unwedges.
func TestBoundedWaits(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	obj := &blockingObject{release: make(chan struct{})}
	ex, err := hybsync.NewObject("mpserver", obj, hybsync.WithQueueCap(4))
	if err != nil {
		t.Fatal(err)
	}
	h := hybsync.MustHandle(ex)
	tk, err := h.Submit(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.TryWait(tk); !errors.Is(err, hybsync.ErrNotReady) {
		t.Fatalf("TryWait on wedged server = %v, want ErrNotReady", err)
	}
	if _, err := h.WaitTimeout(tk, 50*time.Millisecond); !errors.Is(err, hybsync.ErrWaitTimeout) {
		t.Fatalf("WaitTimeout on wedged server = %v, want ErrWaitTimeout", err)
	}
	close(obj.release) // unwedge; the ticket is still redeemable
	if v, err := h.WaitTimeout(tk, 10*time.Second); err != nil || v != 0 {
		t.Fatalf("WaitTimeout after unwedge = (%d, %v), want (0, nil)", v, err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStallWatchdog wires WithStallTimeout through to the backoff
// stall handler: a wait that outlives the budget must report exactly
// once with its construction label.
func TestStallWatchdog(t *testing.T) {
	defer watchdog(t, 30*time.Second)()
	fired := make(chan string, 8)
	backoff.SetStallHandler(func(label string, waited time.Duration) {
		fired <- label
	})
	defer backoff.SetStallHandler(nil)

	obj := &blockingObject{release: make(chan struct{})}
	ex, err := hybsync.NewObject("mpserver", obj,
		hybsync.WithQueueCap(4), hybsync.WithStallTimeout(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h := hybsync.MustHandle(ex)
	tk, err := h.Submit(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WaitTimeout(tk, 2*time.Second); !errors.Is(err, hybsync.ErrWaitTimeout) {
		t.Fatalf("WaitTimeout = %v, want ErrWaitTimeout (server is wedged)", err)
	}
	select {
	case label := <-fired:
		if label == "" {
			t.Fatal("stall handler fired with empty label")
		}
	default:
		t.Fatal("stall handler did not fire within a 2s wait on a 20ms budget")
	}
	close(obj.release)
	h.Wait(tk)
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
}
