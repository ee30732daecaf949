// Property tests for the asynchronous quarter of the Handle contract
// on the public surface: per-handle FIFO completion (Submit order ==
// Wait result order on every single handle) across the five
// constructions, under the race detector.
package hybsync_test

import (
	"sync"
	"testing"
	"time"

	"hybsync"
	"hybsync/internal/handletest"
)

// fiveConstructions are the paper's four plus one queue-lock baseline —
// every distinct completion mechanism in the repository (pipelined
// server, combiner with response queues, chain combiner with deferred
// duty, polling server and lock, both immediate).
var fiveConstructions = []string{"mpserver", "hybcomb", "ccsynch", "shmserver", "mcs-lock"}

// TestPerHandleFIFOProperty drives every construction with several
// goroutines, each pipelining a varying window of submissions through
// its own handle against a fetch-and-increment dispatch. Execution
// order is observable in the results, so the property "submissions
// through one handle execute and complete in submission order" is
// checked directly: each handle's wait results must be strictly
// increasing. The final state checks global conservation.
func TestPerHandleFIFOProperty(t *testing.T) {
	const goroutines, per = 4, 400
	for _, name := range fiveConstructions {
		t.Run(name, func(t *testing.T) {
			var state uint64
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 {
				v := state
				state = v + 1
				return v
			}), hybsync.WithMaxThreads(goroutines))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			var wg sync.WaitGroup
			errs := make(chan error, goroutines)
			for g := 0; g < goroutines; g++ {
				h, err := ex.NewHandle()
				if err != nil {
					t.Fatalf("NewHandle %d: %v", g, err)
				}
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var win []hybsync.Ticket
					prev := int64(-1)
					check := func(v uint64) bool {
						if int64(v) <= prev {
							return false
						}
						prev = int64(v)
						return true
					}
					for i := 0; i < per; i++ {
						// Window depth varies 1..8 per iteration, so the
						// property is exercised at every pipeline depth,
						// including the blocking depth-1 case via Apply.
						depth := (g+i)%8 + 1
						for len(win) >= depth {
							if !check(h.Wait(win[0])) {
								errs <- errFIFO(name)
								return
							}
							win = win[1:]
						}
						if depth == 1 {
							if !check(h.Apply(0, 0)) {
								errs <- errFIFO(name)
								return
							}
						} else {
							tk, err := h.Submit(0, 0)
							if err != nil {
								errs <- err
								return
							}
							win = append(win, tk)
						}
					}
					for _, tk := range win {
						if !check(h.Wait(tk)) {
							errs <- errFIFO(name)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if state != goroutines*per {
				t.Fatalf("state = %d, want %d (operations lost or duplicated)", state, goroutines*per)
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

type errFIFO string

func (e errFIFO) Error() string {
	return string(e) + ": per-handle FIFO violated: a wait returned an earlier execution than its predecessor"
}

// TestTicketResultMatching submits operations with distinct arguments
// through an echoing dispatch and redeems the tickets out of order:
// every ticket must return exactly its own operation's result.
func TestTicketResultMatching(t *testing.T) {
	for _, name := range fiveConstructions {
		t.Run(name, func(t *testing.T) {
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return arg * 3 }),
				hybsync.WithMaxThreads(2))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			defer ex.Close()
			h := hybsync.MustHandle(ex)
			const n = 24
			tickets := make([]hybsync.Ticket, n)
			for i := range tickets {
				tickets[i], _ = h.Submit(0, uint64(i+1))
			}
			for i := n - 1; i >= 0; i-- { // reverse redemption
				if got, want := h.Wait(tickets[i]), uint64(i+1)*3; got != want {
					t.Fatalf("Wait(ticket %d) = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// TestPostFlushAcrossConstructions: fire-and-forget submissions all
// execute once Flush returns, on every construction.
func TestPostFlushAcrossConstructions(t *testing.T) {
	for _, name := range fiveConstructions {
		t.Run(name, func(t *testing.T) {
			var state uint64
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 {
				state += arg
				return state
			}), hybsync.WithMaxThreads(2))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			h := hybsync.MustHandle(ex)
			const n = 64
			for i := 0; i < n; i++ {
				if err := h.Post(0, 1); err != nil {
					t.Fatalf("Post %d: %v", i, err)
				}
			}
			h.Flush()
			if state != n {
				t.Fatalf("state after Flush = %d, want %d", state, n)
			}
			if err := ex.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestTicketMisusePanics: Wait, TryWait and WaitTimeout on a ticket that
// is not outstanding — already redeemed, issued by another handle, or
// never issued at all — panic with one message on every registered
// algorithm (and SyncHandle's adapter, which shares the pipeline). Each
// case runs under a watchdog: before the one ticket window, mpserver
// answered a foreign or unissued ticket by waiting forever for a
// response nobody would send.
func TestTicketMisusePanics(t *testing.T) {
	waits := map[string]func(h hybsync.Handle, tk hybsync.Ticket){
		"Wait":        func(h hybsync.Handle, tk hybsync.Ticket) { h.Wait(tk) },
		"TryWait":     func(h hybsync.Handle, tk hybsync.Ticket) { h.TryWait(tk) },
		"WaitTimeout": func(h hybsync.Handle, tk hybsync.Ticket) { h.WaitTimeout(tk, time.Second) },
	}
	echo := func(op, arg uint64) uint64 { return arg }
	subjects := map[string]func(t *testing.T) (a, b hybsync.Handle){
		"SyncHandle": func(*testing.T) (a, b hybsync.Handle) {
			return hybsync.SyncHandle(echo), hybsync.SyncHandle(echo)
		},
	}
	for _, name := range hybsync.Algorithms() {
		subjects[name] = func(t *testing.T) (a, b hybsync.Handle) {
			ex, err := hybsync.NewObject(name, hybsync.Func(echo), hybsync.WithMaxThreads(2))
			if err != nil {
				t.Fatalf("New(%q): %v", name, err)
			}
			t.Cleanup(func() { ex.Close() })
			return hybsync.MustHandle(ex), hybsync.MustHandle(ex)
		}
	}
	for name, open := range subjects {
		for wname, wait := range waits {
			t.Run(name+"/"+wname, func(t *testing.T) {
				handletest.Guard(t, func() {
					a, b := open(t)
					var theirs [3]hybsync.Ticket
					for i := range theirs {
						theirs[i], _ = b.Submit(0, uint64(i))
					}
					b.Flush() // b's tickets settle before the executor closes
					handletest.MustPanic(t, "never-issued ticket", func() { wait(a, theirs[2]) })
					mine, _ := a.Submit(0, 7)
					if v := a.Wait(mine); v != 7 {
						t.Fatalf("Wait = %d, want 7", v)
					}
					handletest.MustPanic(t, "redeemed ticket", func() { wait(a, mine) })
					// b's first ticket carries the number a has just
					// retired; its third, one a has still not reached.
					handletest.MustPanic(t, "foreign ticket", func() { wait(a, theirs[0]) })
					handletest.MustPanic(t, "foreign ticket", func() { wait(a, theirs[2]) })
				})
			})
		}
	}
}
