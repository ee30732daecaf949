package core_test

import (
	"errors"
	"runtime"
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestMPServerRunIsOneMessage: an mpserver handle's window defers into
// its Pipe's run, and a demanded run travels as one request message
// through the handle's run cell and comes back with one reply — whole
// at the server, in per-handle FIFO order, across the cell's wrap, and
// through a poisoned or closing server.
func TestMPServerRunIsOneMessage(t *testing.T) {
	const queueCap = 4 // the run cell has 8 slots
	open := func(obj core.Object, queueCap int) (*core.MPServer, core.Handle) {
		s := core.NewMPServer(obj, core.Options{QueueCap: queueCap, MaxThreads: 2})
		return s, core.MustHandle(s)
	}
	run := func(name string, body func(t *testing.T)) {
		t.Run(name, func(t *testing.T) { handletest.Guard(t, func() { body(t) }) })
	}

	run("window-is-one-run", func(t *testing.T) {
		obj := &runRec{fuse: -1}
		s, h := open(obj, queueCap)
		defer s.Close()
		tks := submitN(t, h, queueCap)
		wantRuns(t, obj) // nothing sent yet
		if v := h.Wait(tks[queueCap-1]); v != queueCap-1 {
			t.Fatalf("Wait(newest ticket) = %d, want %d", v, queueCap-1)
		}
		wantRuns(t, obj, queueCap)
		for i, tk := range tks[:queueCap-1] {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("Wait(ticket %d) = %d", i, v)
			}
		}
	})

	run("batch-behind-owed-run-wraps-the-cell", func(t *testing.T) {
		var args []uint64 // every argument the server executed, in order
		obj := core.Func(func(_, arg uint64) uint64 {
			args = append(args, arg)
			return uint64(len(args) - 1)
		})
		s, h := open(obj, queueCap)
		defer s.Close()
		reqs := func(from, n int) []core.Req {
			r := make([]core.Req, n)
			for i := range r {
				r[i].Arg = uint64(from + i)
			}
			return r
		}
		var tks []core.Ticket
		submit := func(batch []core.Req) {
			t.Helper()
			tk, err := h.SubmitBatch(batch)
			if err != nil {
				t.Fatal(err)
			}
			for i := range batch {
				tks = append(tks, tk.Offset(i))
			}
		}
		submit(reqs(0, 3)) // one message, owed
		batch := reqs(3, 10)
		submit(batch) // room for one, then a slot at a time as the oldest settle
		for i := range batch {
			batch[i].Arg = 999 // the caller reuses its slice...
		}
		submit(reqs(13, 2)) // ...and the Pipe its done scratch
		if stalls, depth := s.Pipeline(); stalls == 0 || depth > queueCap {
			t.Errorf("Pipeline() = (%d stalls, depth %d), want the batch to stop at the room of %d", stalls, depth, queueCap)
		}
		for i := len(tks) - 1; i >= 0; i-- {
			if v := h.Wait(tks[i]); v != uint64(i) {
				t.Fatalf("Wait(request %d) = %d, want %d", i, v, i)
			}
		}
		for i, a := range args {
			if a != uint64(i) {
				t.Fatalf("the server executed arguments %v, want 0 to %d in order", args, len(tks)-1)
			}
		}
	})

	run("posts-flush-discards", func(t *testing.T) {
		obj := &runRec{fuse: -1}
		s, h := open(obj, 8)
		defer s.Close()
		for i := 0; i < 8; i++ {
			if err := h.Post(0, 0); err != nil {
				t.Fatal(err)
			}
		}
		h.Flush()
		if in := h.(*core.Pipe).InFlight(); in != 0 {
			t.Fatalf("%d in flight after Flush", in)
		}
		wantRuns(t, obj, 8)
		if v := h.Apply(0, 0); v != 8 { // no reply of the run is left on the ring
			t.Fatalf("Apply after the Flush = %d, want 8", v)
		}
	})

	run("poisoned-server-answers-zeros", func(t *testing.T) {
		obj := &runRec{fuse: -1}
		s, h := open(obj, queueCap)
		other := core.MustHandle(s)
		mine, theirs := submitN(t, h, 3), submitN(t, other, 2)
		s.Poison("poisoned by the test")
		for _, tk := range mine {
			if v := h.Wait(tk); v != 0 {
				t.Fatalf("Wait = %d on a poisoned server, want 0", v)
			}
		}
		for _, tk := range theirs {
			if v := other.Wait(tk); v != 0 {
				t.Fatalf("other handle's Wait = %d on a poisoned server, want 0", v)
			}
		}
		wantRuns(t, obj)
		if err := s.Close(); !errors.Is(err, core.ErrPoisoned) {
			t.Fatalf("Close = %v, want the poison", err)
		}
	})

	run("close-drains-the-ring", func(t *testing.T) {
		// The server is parked in one handle's dispatch with another
		// handle's run already on the ring when Close starts: the loop
		// must serve that run before it lets the executor go, so Close
		// returns with it executed.
		obj := &runRec{fuse: -1, entered: make(chan struct{}), release: make(chan struct{})}
		s, holder := open(obj, queueCap)
		h := core.MustHandle(s)
		held := make(chan uint64)
		go func() { held <- holder.Apply(opPark, 0) }()
		<-obj.entered
		tks := submitN(t, h, 3)
		if _, err := h.TryWait(tks[0]); !errors.Is(err, core.ErrNotReady) {
			t.Fatalf("TryWait with the server parked = %v, want ErrNotReady", err)
		}
		closed := make(chan error)
		go func() { closed <- s.Close() }()
		for _, err := s.NewHandle(); !errors.Is(err, core.ErrClosed); _, err = s.NewHandle() {
			runtime.Gosched()
		}
		select {
		case err := <-closed:
			t.Fatalf("Close returned %v with the server parked", err)
		default:
		}
		close(obj.release)
		if v := <-held; v != 0 {
			t.Fatalf("holder's Apply = %d, want 0", v)
		}
		if err := <-closed; err != nil {
			t.Fatal(err)
		}
		wantRuns(t, obj, 1, 3)
		for i, tk := range tks {
			if v := h.Wait(tk); v != uint64(1+i) {
				t.Fatalf("Wait(ticket %d) = %d, want %d", i, v, 1+i)
			}
		}
	})

	run("waits-racing-close", func(t *testing.T) {
		// Two handles demand their pending runs while another goroutine
		// closes the executor: each run is served by the server or, sent
		// too late for it, executed by its own Wait — never lost.
		for round := 0; round < 200; round++ {
			obj := &runRec{fuse: -1}
			s, h := open(obj, queueCap)
			other := core.MustHandle(s)
			mine, theirs := submitN(t, h, 3), submitN(t, other, 2)
			closed := make(chan error)
			got := make(chan []uint64)
			waitAll := func(h core.Handle, tks []core.Ticket) {
				var vs []uint64
				for _, tk := range tks {
					vs = append(vs, h.Wait(tk))
				}
				got <- vs
			}
			go func() { closed <- s.Close() }()
			go waitAll(other, theirs)
			go waitAll(h, mine)
			a, b := <-got, <-got
			if err := <-closed; err != nil {
				t.Fatal(err)
			}
			if a[0] > b[0] {
				a, b = b, a
			}
			for i, v := range append(a, b...) {
				if v != uint64(i) {
					t.Fatalf("round %d: the two handles' Waits returned %v and %v, want one run after the other", round, a, b)
				}
			}
		}
	})

	run("every-opcode-is-an-operation", func(t *testing.T) {
		s, h := open(core.Func(func(op, arg uint64) uint64 { return op ^ arg }), queueCap)
		defer s.Close()
		const op = ^uint64(0) // the largest opcode, no construction reserves it
		for arg := uint64(0); arg < 2*queueCap; arg++ {
			if v := h.Apply(op, arg); v != op^arg {
				t.Fatalf("Apply(%#x, %d) = %#x, want %#x", op, arg, v, op^arg)
			}
		}
		tk, err := h.Submit(op, 1)
		if err != nil {
			t.Fatal(err)
		}
		if v := h.Wait(tk); v != op^1 {
			t.Fatalf("Wait = %#x, want %#x", v, op^1)
		}
	})
}
