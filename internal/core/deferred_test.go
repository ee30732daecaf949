package core_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// openDeferring builds one pipelining subject over obj: a registered
// construction by name, or the hybrid frozen in one mode
// ("hybrid-lock", "hybrid-delegation"). edge forces the hybrid's mode
// and does nothing elsewhere.
func openDeferring(name string, obj core.Object, queueCap int) (ex core.Executor, edge func(promote bool)) {
	if mode, ok := strings.CutPrefix(name, "hybrid-"); ok {
		h := core.NewHybrid(obj, core.Options{QueueCap: queueCap})
		core.FreezeHybrid(h)
		core.ForceHybridMode(h, mode == "delegation")
		return h, func(promote bool) { core.ForceHybridMode(h, promote) }
	}
	return core.MustNewObject(name, obj, core.WithQueueCap(queueCap)), func(bool) {}
}

// TestDeferredWindowAllocs: once a handle's window has run once,
// pipelining through it allocates nothing — the pending run is the
// Pipe's, sized at newPipe, an eager pipe's run of one borrows its
// buffers, and the ticket window reuses its slots — and neither does a
// blocking Apply or ApplyBatch. The subjects are every registered
// construction, the hybrid frozen in each mode, and SyncHandle.
func TestDeferredWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const queueCap = 8
	var ctr uint64
	apply := func(op, arg uint64) uint64 { ctr++; return ctr }
	obj := core.Func(apply)
	open := map[string]func() (core.Handle, func() error){
		"SyncHandle": func() (core.Handle, func() error) {
			return core.SyncHandle(apply), func() error { return nil }
		},
	}
	for _, name := range append(core.Algorithms(), "hybrid-lock", "hybrid-delegation") {
		open[name] = func() (core.Handle, func() error) {
			ex, _ := openDeferring(name, obj, queueCap)
			return core.MustHandle(ex), ex.Close
		}
	}
	for name, mk := range open {
		t.Run(name, func(t *testing.T) {
			h, closeEx := mk()
			defer closeEx()
			tks := make([]core.Ticket, queueCap)
			reqs := make([]core.Req, 3)
			batch, rets := make([]core.Req, 32), make([]uint64, 32)
			for script, run := range map[string]func(){
				"submit-window-wait": func() {
					for i := range tks {
						tks[i], _ = h.Submit(0, 0)
					}
					for _, tk := range tks {
						h.Wait(tk)
					}
				},
				"post-flush": func() {
					for i := 0; i < 8; i++ {
						h.Post(0, 0)
					}
					h.Flush()
				},
				"submit-batch-behind-singles": func() {
					a, _ := h.Submit(0, 0)
					b, _ := h.Submit(0, 0)
					c, _ := h.SubmitBatch(reqs)
					h.Wait(a)
					h.Wait(b)
					for i := range reqs {
						h.Wait(c.Offset(i))
					}
				},
				"apply": func() {
					for i := 0; i < 8; i++ {
						h.Apply(0, 0)
					}
				},
				"apply-batch-32": func() { h.ApplyBatch(batch, rets) },
			} {
				run() // warm-up: sizes the ticket window and the batch scratch
				if n := testing.AllocsPerRun(100, run); n != 0 {
					t.Errorf("%s: %v allocations per window, want 0", script, n)
				}
			}
		})
	}
}

// FuzzDeferredWindow drives one handle of a pipelining construction —
// mcs-lock, hybcomb, ccsynch, mpserver (whose runs travel through a
// run cell of at least eight slots, so a script wraps it, and whose
// batches behind an owed run stop at the window's room and resume as it
// frees), or the hybrid frozen in either mode with forced edges —
// through a script of every call that fills, joins or demands its
// deferred run or hands a run over at once, at QueueCap 2 to 5, over a
// recording object
// whose results are execution indices. Per-handle FIFO and exactly-once
// redemption then read as values: every redeemed ticket returns its
// operation's submission index, a redeemed ticket is not outstanding,
// and after a Flush nothing is in flight and the object has executed
// every operation issued. A lone handle has nobody else to wait for but
// mpserver's server, so its bounded waits always redeem except there,
// where one that reports not ready is waited out.
//
// The first byte picks the subject and QueueCap; each later byte is one
// step (low nibble: the call; high nibble: its argument — a batch
// length, or which outstanding ticket to redeem).
func FuzzDeferredWindow(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0x00, 0x00, 0x01, 0x35, 0x05, 0x18, 0x08},
		{1, 0x00, 0x01, 0x32, 0x00, 0x06, 0x07, 0x14, 0x05, 0x08},
		{2, 0x00, 0x01, 0x09, 0x00, 0x09, 0x52, 0x05, 0x09, 0x17, 0x08},
		{8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x23, 0x03, 0x44, 0x08},
		{14, 0x00, 0x09, 0x01, 0x09, 0x00, 0x24, 0x09, 0x03, 0x26, 0x05},
		{20, 0x02, 0x52, 0x00, 0x09, 0x00, 0x07, 0x06, 0x05, 0x08},
		{3, 0x00, 0x01, 0x32, 0x00, 0x06, 0x07, 0x14, 0x05, 0x08},
		{21, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x23, 0x03, 0x44, 0x57, 0x08},
		{4, 0x00, 0x01, 0x52, 0x00, 0x45, 0x05, 0x06, 0x08},
		{5, 0x00, 0x09, 0x01, 0x52, 0x09, 0x00, 0x44, 0x17, 0x08},
		{22, 0x00, 0x00, 0x00, 0x52, 0x09, 0x42, 0x09, 0x05, 0x07, 0x08},
		// mpserver at QueueCap 2, 3 and 4: batches behind owed runs, the
		// run cell wrapping more than once.
		{4, 0x32, 0x52, 0x05, 0x52, 0x00, 0x00, 0x06, 0x42, 0x15, 0x52, 0x07, 0x08},
		{10, 0x52, 0x32, 0x00, 0x01, 0x06, 0x52, 0x25, 0x52, 0x44, 0x52, 0x08},
		{16, 0x32, 0x52, 0x00, 0x00, 0x07, 0x52, 0x52, 0x35, 0x52, 0x01, 0x01, 0x08},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		handletest.Guard(t, func() { deferredWindow(t, script) })
	})
}

func deferredWindow(t *testing.T, script []byte) {
	subjects := []string{"mcs-lock", "hybcomb", "hybrid-lock", "ccsynch", "mpserver", "hybrid-delegation"}
	name, queueCap := subjects[int(script[0])%len(subjects)], 2+int(script[0])/len(subjects)%4
	obj := &runRec{fuse: -1}
	ex, edge := openDeferring(name, obj, queueCap)
	h := core.MustHandle(ex)
	type issued struct {
		tk   core.Ticket
		want uint64
	}
	var (
		out      []issued // outstanding tickets
		redeemed []core.Ticket
		n        uint64 // operations issued
		promoted bool
	)
	redeem := func(i int, how string, v uint64, err error) {
		t.Helper()
		if name == "mpserver" && (errors.Is(err, core.ErrNotReady) || errors.Is(err, core.ErrWaitTimeout)) {
			v, err = h.Wait(out[i].tk), nil // the server answers in its own time
		}
		if err != nil || v != out[i].want {
			t.Fatalf("%s %s(ticket of operation %d) = (%d, %v), want (%d, nil)", name, how, out[i].want, v, err, out[i].want)
		}
		redeemed = append(redeemed, out[i].tk)
		out = append(out[:i], out[i+1:]...)
	}
	for _, b := range script[1:] {
		arg := int(b >> 4)
		switch b & 0xf % 10 {
		case 0:
			tk, err := h.Submit(0, 0)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			out = append(out, issued{tk, n})
			n++
		case 1:
			if err := h.Post(0, 0); err != nil {
				t.Fatalf("Post: %v", err)
			}
			n++
		case 2:
			k := arg % 6
			tk, err := h.SubmitBatch(make([]core.Req, k))
			if err != nil {
				t.Fatalf("SubmitBatch(%d): %v", k, err)
			}
			for i := 0; i < k; i++ {
				out = append(out, issued{tk.Offset(i), n})
				n++
			}
		case 3:
			if v := h.Apply(0, 0); v != n {
				t.Fatalf("%s Apply = %d, want %d", name, v, n)
			}
			n++
		case 4:
			k := arg % 6
			var res []uint64
			if arg&8 == 0 {
				res = make([]uint64, k)
			}
			h.ApplyBatch(make([]core.Req, k), res)
			for i, v := range res {
				if v != n+uint64(i) {
					t.Fatalf("%s ApplyBatch results[%d] = %d, want %d", name, i, v, n+uint64(i))
				}
			}
			n += uint64(k)
		case 5, 6, 7:
			if len(out) == 0 {
				continue
			}
			i := arg % len(out)
			switch b & 0xf % 10 {
			case 5:
				redeem(i, "Wait", h.Wait(out[i].tk), nil)
			case 6:
				v, err := h.TryWait(out[i].tk)
				redeem(i, "TryWait", v, err)
			default:
				v, err := h.WaitTimeout(out[i].tk, time.Nanosecond)
				redeem(i, "WaitTimeout(1ns)", v, err)
			}
		case 8:
			flushed(t, name, h, obj, n)
		case 9:
			promoted = !promoted
			edge(promoted)
		}
	}
	for len(out) > 0 {
		redeem(0, "Wait", h.Wait(out[0].tk), nil)
	}
	if len(redeemed) > 0 {
		handletest.MustPanic(t, "Wait on a redeemed ticket", func() { h.Wait(redeemed[len(redeemed)/2]) })
	}
	flushed(t, name, h, obj, n)
	if err := ex.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// flushed flushes h and checks that nothing is left in flight and that
// the object executed all n operations issued.
func flushed(t *testing.T, name string, h core.Handle, obj *runRec, n uint64) {
	t.Helper()
	h.Flush()
	if in := h.(*core.Pipe).InFlight(); in != 0 || obj.state != n {
		t.Fatalf("%s after Flush: %d in flight and %d of %d operations executed", name, in, obj.state, n)
	}
}
