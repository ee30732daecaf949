package core_test

import (
	"strings"
	"testing"
	"time"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// openDeferring builds one deferring subject over obj: a registered
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

// TestDeferredWindowAllocs: once a deferring handle's window has run
// once, pipelining through it allocates nothing — the pending run is
// the Pipe's, sized at NewPipe, and the ticket window reuses its slots.
func TestDeferredWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const queueCap = 8
	var ctr uint64
	obj := core.Func(func(op, arg uint64) uint64 { ctr++; return ctr })
	for _, name := range []string{"mcs-lock", "hybcomb", "ccsynch", "hybrid-lock", "hybrid-delegation"} {
		t.Run(name, func(t *testing.T) {
			ex, _ := openDeferring(name, obj, queueCap)
			defer ex.Close()
			h := core.MustHandle(ex)
			tks := make([]core.Ticket, queueCap)
			reqs := make([]core.Req, 3)
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
			} {
				run() // warm-up: sizes the ticket window and the batch scratch
				if n := testing.AllocsPerRun(100, run); n != 0 {
					t.Errorf("%s: %v allocations per window, want 0", script, n)
				}
			}
		})
	}
}

// FuzzDeferredWindow drives one handle of a deferring construction —
// mcs-lock, hybcomb, ccsynch, or the hybrid frozen in lock mode with
// forced edges — through a script of every call that fills, joins or
// demands its deferred run, at QueueCap 2 to 5, over a recording object
// whose results are execution indices. Per-handle FIFO and exactly-once
// redemption then read as values: every redeemed ticket returns its
// operation's submission index, a redeemed ticket is not outstanding,
// and after a Flush nothing is in flight and the object has executed
// every operation issued. A lone handle has nobody else to wait for, so
// its bounded waits always redeem.
//
// The first byte picks the subject and QueueCap; each later byte is one
// step (low nibble: the call; high nibble: its argument — a batch
// length, or which outstanding ticket to redeem).
func FuzzDeferredWindow(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0x00, 0x00, 0x01, 0x35, 0x05, 0x18, 0x08},
		{1, 0x00, 0x01, 0x32, 0x00, 0x06, 0x07, 0x14, 0x05, 0x08},
		{2, 0x00, 0x01, 0x09, 0x00, 0x09, 0x52, 0x05, 0x09, 0x17, 0x08},
		{6, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x23, 0x03, 0x44, 0x08},
		{10, 0x00, 0x09, 0x01, 0x09, 0x00, 0x24, 0x09, 0x03, 0x26, 0x05},
		{14, 0x02, 0x52, 0x00, 0x09, 0x00, 0x07, 0x06, 0x05, 0x08},
		{3, 0x00, 0x01, 0x32, 0x00, 0x06, 0x07, 0x14, 0x05, 0x08},
		{15, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x23, 0x03, 0x44, 0x57, 0x08},
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
	subjects := []string{"mcs-lock", "hybcomb", "hybrid-lock", "ccsynch"}
	name, queueCap := subjects[script[0]%4], 2+int(script[0]/4%4)
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
