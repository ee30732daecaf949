// Package handletest is the Handle contract as one executable script.
// Every construction hands out the same pipeline type (core.Pipe) over
// its own transport, so one script run per construction — from the root
// package's suite, the only place every algorithm is registered, and
// once more from internal/core with a forced hybrid transition between
// every two steps — checks what used to be checked per construction,
// slightly differently each time.
package handletest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hybsync/internal/core"
)

// Subject is one construction under the script.
type Subject struct {
	// Open builds a fresh system over obj whose handles keep at most
	// queueCap operations in flight.
	Open func(t *testing.T, obj core.Object, queueCap int) *System
	// OwesContended: a Submit returns, its completion owed, while
	// another handle is inside the critical section, and the bounded
	// waits report it not ready until the section is released (the
	// delegation constructions). OwesAlways: a Submit leaves its
	// completion in flight even with one thread (a request is a message,
	// a chain cell or an entry of the pipeline's deferred run — whose
	// bounded waits on a lock acquire it rather than time out, so the
	// locks and the hybrid set this one alone). The immediate
	// constructions set neither.
	OwesContended, OwesAlways bool
}

// System is one executor (nil for a bare SyncHandle) and its handles.
type System struct {
	Ex     core.Executor
	Handle func() core.Handle
	// Step, when set, runs between every two calls the script makes on
	// a handle — the hybrid's test forces a mode transition there.
	Step func()
}

func (s *System) step() {
	if s.Step != nil {
		s.Step()
	}
}

func (s *System) close(t *testing.T) {
	t.Helper()
	if s.Ex != nil {
		if err := s.Ex.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}
}

// OpGate is the opcode that parks the dispatching thread inside the
// critical section until the script releases it.
const OpGate = 1

// Object is the script's protected object: a counter whose results
// are execution indices, so FIFO and exactly-once are visible in the
// values; OpGate holds the critical section, and Fuse, when not
// negative, is the execution index at which the object panics.
type Object struct {
	State   uint64
	Fuse    int64
	Entered chan struct{}
	Release chan struct{}
}

func newObject() *Object {
	return &Object{Fuse: -1, Entered: make(chan struct{}, 1), Release: make(chan struct{})}
}

// DispatchBatch implements core.Object.
func (o *Object) DispatchBatch(reqs []core.Req, results []uint64) {
	for i, r := range reqs {
		if o.Fuse >= 0 && o.State == uint64(o.Fuse) {
			panic("handletest: injected fault")
		}
		if r.Op == OpGate {
			o.Entered <- struct{}{}
			<-o.Release
		}
		results[i] = o.State
		o.State++
	}
}

// Guard runs body under the script's liveness bound and kills the
// process with a goroutine dump when it outlives it: a hang must fail
// the run, not wedge it. Panicking off the test goroutine (t.Fatal must
// not be called there) prints every stack, including the wedged ones.
// Exported for the ticket-misuse tests, which need the same bound.
func Guard(t *testing.T, body func()) {
	const bound = 60 * time.Second
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-done:
		case <-time.After(bound):
			buf := make([]byte, 1<<20)
			panic(fmt.Sprintf("%s: hung for %v; goroutine dump:\n%s", t.Name(), bound, buf[:runtime.Stack(buf, true)]))
		}
	}()
	body()
}

// MustPanic reports whether f panicked with the one ticket-misuse
// message every construction shares.
func MustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		const want = "core: Wait on a ticket that is not outstanding (already waited, or issued by another handle)"
		if r := recover(); r != want {
			t.Errorf("%s: recovered %v, want the panic %q", what, r, want)
		}
	}()
	f()
}

const queueCap = 4

// Run drives every case of the script against s.
func Run(t *testing.T, s Subject) {
	for _, c := range []struct {
		name string
		run  func(*testing.T, Subject)
	}{
		{"reverse-wait-past-queuecap", reverseWait},
		{"post-submit-flush-wait", postSubmitFlush},
		{"window-across-steps", windowAcrossSteps},
		{"bounded-waits", boundedWaits},
		{"apply-and-batch-behind-tickets", applyBehindTickets},
		{"submit-batch", submitBatch},
		{"close-drains", closeDrains},
		{"poison-mid-window", poisonMidWindow},
	} {
		t.Run(c.name, func(t *testing.T) { Guard(t, func() { c.run(t, s) }) })
	}
}

func submit(t *testing.T, sys *System, h core.Handle, op uint64) core.Ticket {
	t.Helper()
	tk, err := h.Submit(op, 0)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	sys.step()
	return tk
}

// reverseWait: banked results are unbounded while operations in flight
// never exceed QueueCap — waiting newest-first across three windows'
// worth of tickets redeems each with its own result, and PipelineStats
// shows the bound held and every submission past it stalled.
func reverseWait(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	const n = 3*queueCap + 1
	var tks [n]core.Ticket
	for i := range tks {
		tks[i] = submit(t, sys, h, 0)
	}
	for i := n - 1; i >= 0; i-- {
		if got := h.Wait(tks[i]); got != uint64(i) {
			t.Fatalf("Wait(ticket %d) = %d, want %d", i, got, i)
		}
		sys.step()
	}
	if ps, ok := sys.Ex.(core.PipelineStats); ok {
		stalls, depth := ps.Pipeline()
		if depth > queueCap {
			t.Errorf("maxDepth = %d exceeds QueueCap %d", depth, queueCap)
		}
		if s.OwesAlways && (depth != queueCap || stalls != n-queueCap) {
			t.Errorf("Pipeline() = (%d stalls, depth %d), want (%d, %d): every submission past the window stalls",
				stalls, depth, n-queueCap, queueCap)
		}
	} else if s.OwesAlways {
		t.Errorf("%T pipelines but does not expose PipelineStats", sys.Ex)
	}
	sys.close(t)
}

// postSubmitFlush: Posts interleave with Submits in one FIFO; Flush
// completes all of them, banking the Submit results for their Wait.
func postSubmitFlush(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	const n = 4 * queueCap
	tks := map[uint64]core.Ticket{}
	for i := uint64(0); i < n; i++ {
		if i%3 == 1 {
			if err := h.Post(0, 0); err != nil {
				t.Fatalf("Post: %v", err)
			}
			sys.step()
		} else {
			tks[i] = submit(t, sys, h, 0)
		}
	}
	h.Flush()
	if obj.State != n {
		t.Fatalf("after Flush %d of %d operations executed", obj.State, n)
	}
	sys.step()
	for i, tk := range tks {
		if got := h.Wait(tk); got != i {
			t.Fatalf("Wait(ticket of operation %d) = %d", i, got)
		}
		sys.step()
	}
	h.Flush() // nothing in flight: must return at once
	sys.close(t)
}

// windowAcrossSteps: three calls go out between every two steps, Posts
// among the Submits, so a step always finds submissions outstanding —
// on the hybrid, pending on the lock side across a promotion and owed
// by the backend across a demotion. Waited out of order (odd tickets
// newest-first, then even ones oldest-first, a step between every two),
// each ticket redeems exactly once with its own operation's result.
func windowAcrossSteps(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	const n = 6 * 3
	type issued struct {
		tk core.Ticket
		op uint64
	}
	var tks []issued
	for op := uint64(0); op < n; op++ {
		if op%4 == 1 {
			if err := h.Post(0, 0); err != nil {
				t.Fatalf("Post: %v", err)
			}
		} else {
			tk, err := h.Submit(0, 0)
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			tks = append(tks, issued{tk, op})
		}
		if op%3 == 2 {
			sys.step()
		}
	}
	wait := func(i int) {
		t.Helper()
		if got := h.Wait(tks[i].tk); got != tks[i].op {
			t.Fatalf("Wait(ticket of operation %d) = %d", tks[i].op, got)
		}
		sys.step()
	}
	for i := len(tks) - 1; i >= 0; i-- {
		if i%2 == 1 {
			wait(i)
		}
	}
	for i := 0; i < len(tks); i += 2 {
		wait(i)
	}
	MustPanic(t, "Wait on a redeemed ticket", func() { h.Wait(tks[len(tks)/2].tk) })
	h.Flush()
	if obj.State != n {
		t.Fatalf("%d operations executed, want %d", obj.State, n)
	}
	sys.close(t)
}

// boundedWaits: a ready ticket redeems through TryWait and WaitTimeout;
// a ticket whose operation cannot have executed — another handle is
// parked inside the critical section — reports ErrNotReady and
// ErrWaitTimeout and stays redeemable in between.
func boundedWaits(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	tk := submit(t, sys, h, 0)
	h.Flush()
	sys.step()
	if v, err := h.TryWait(tk); v != 0 || err != nil {
		t.Fatalf("TryWait(flushed ticket) = (%d, %v), want (0, nil)", v, err)
	}
	tk = submit(t, sys, h, 0)
	if v, err := h.WaitTimeout(tk, time.Minute); v != 1 || err != nil {
		t.Fatalf("WaitTimeout(uncontended ticket) = (%d, %v), want (1, nil)", v, err)
	}
	if s.OwesContended {
		holder := sys.Handle()
		held := make(chan uint64)
		go func() { held <- holder.Apply(OpGate, 0) }()
		<-obj.Entered
		tk = submit(t, sys, h, 0) // returns although the section is held
		for i := 0; i < 2; i++ {
			if _, err := h.TryWait(tk); !errors.Is(err, core.ErrNotReady) {
				t.Fatalf("TryWait with the critical section held = %v, want ErrNotReady", err)
			}
			if _, err := h.WaitTimeout(tk, 5*time.Millisecond); !errors.Is(err, core.ErrWaitTimeout) {
				t.Fatalf("WaitTimeout with the critical section held = %v, want ErrWaitTimeout", err)
			}
		}
		close(obj.Release)
		if v, err := h.WaitTimeout(tk, time.Minute); v != 3 || err != nil {
			t.Fatalf("WaitTimeout after release = (%d, %v), want (3, nil)", v, err)
		}
		if v := <-held; v != 2 {
			t.Fatalf("holder's Apply = %d, want 2", v)
		}
		MustPanic(t, "TryWait on the redeemed ticket", func() { h.TryWait(tk) })
	}
	sys.close(t)
}

// applyBehindTickets: a blocking Apply or ApplyBatch issued behind an
// unwaited Submit or Post executes after it (per-handle FIFO) — on
// CC-SYNCH the case that used to deadlock, the older cell holding the
// combining duty the blocking call would spin for.
func applyBehindTickets(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	t0 := submit(t, sys, h, 0)
	if v := h.Apply(0, 0); v != 1 {
		t.Fatalf("Apply behind a ticket = %d, want 1", v)
	}
	sys.step()
	if err := h.Post(0, 0); err != nil {
		t.Fatalf("Post: %v", err)
	}
	sys.step()
	if v := h.Apply(0, 0); v != 3 {
		t.Fatalf("Apply behind a Post = %d, want 3", v)
	}
	sys.step()
	t4 := submit(t, sys, h, 0)
	const batch = 2*queueCap + 1 // longer than the window: must chunk through it
	reqs, res := make([]core.Req, batch), make([]uint64, batch)
	h.ApplyBatch(reqs, res)
	sys.step()
	for i, v := range res {
		if v != uint64(5+i) {
			t.Fatalf("ApplyBatch results[%d] = %d, want %d", i, v, 5+i)
		}
	}
	t5 := submit(t, sys, h, 0)
	h.ApplyBatch(reqs, nil) // discarded results still execute in order
	sys.step()
	for _, w := range []struct {
		tk   core.Ticket
		want uint64
	}{{t5, 5 + batch}, {t4, 4}, {t0, 0}} {
		if v := h.Wait(w.tk); v != w.want {
			t.Fatalf("Wait = %d, want %d", v, w.want)
		}
		sys.step()
	}
	if obj.State != 6+2*batch {
		t.Fatalf("%d operations executed, want %d", obj.State, 6+2*batch)
	}
	sys.close(t)
}

// submitBatch: a SubmitBatch queues behind the handle's earlier
// submissions and ahead of its later ones (per-handle FIFO), request i
// redeems with the batch ticket offset by i — in any order, through any
// of the waits, banked by Flush — a batch longer than QueueCap chunks
// through the window instead of deadlocking on it, and an offset past
// the last batch, a redeemed offset, the ticket of an empty batch and
// another handle's batch ticket are all the one misuse. Where a
// submission can be left owed, a batch submitted while another handle
// holds the critical section returns at once and its offsets report
// ErrNotReady and ErrWaitTimeout until the section is released.
func submitBatch(t *testing.T, s Subject) {
	obj := newObject()
	sys := s.Open(t, obj, queueCap)
	h := sys.Handle()
	batch := func(h core.Handle, n int) core.Ticket {
		t.Helper()
		tk, err := h.SubmitBatch(make([]core.Req, n))
		if err != nil {
			t.Fatalf("SubmitBatch(%d requests): %v", n, err)
		}
		sys.step()
		return tk
	}
	wait := func(tk core.Ticket, want uint64) {
		t.Helper()
		if v := h.Wait(tk); v != want {
			t.Fatalf("Wait = %d, want %d", v, want)
		}
		sys.step()
	}
	const long = 2*queueCap + 1 // longer than the window
	t0 := submit(t, sys, h, 0)  // operation 0
	b1 := batch(h, long)        // operations 1..long
	t1 := submit(t, sys, h, 0)  // operation long+1
	b2 := batch(h, 3)           // operations long+2..long+4
	empty := batch(h, 0)
	for i := 2; i >= 0; i-- { // newest first
		wait(b2.Offset(i), uint64(long+2+i))
	}
	wait(t1, long+1)
	h.Flush()
	if obj.State != long+5 {
		t.Fatalf("after Flush %d of %d operations executed", obj.State, long+5)
	}
	sys.step()
	if v, err := h.TryWait(b1.Offset(long - 1)); v != long || err != nil {
		t.Fatalf("TryWait(last offset of a flushed batch) = (%d, %v), want (%d, nil)", v, err, long)
	}
	if v, err := h.WaitTimeout(b1.Offset(long-2), time.Minute); v != long-1 || err != nil {
		t.Fatalf("WaitTimeout(offset %d) = (%d, %v), want (%d, nil)", long-2, v, err, long-1)
	}
	for i := long - 3; i >= 0; i-- {
		wait(b1.Offset(i), uint64(1+i))
	}
	wait(t0, 0)

	other := sys.Handle()
	foreign := batch(other, 2)
	MustPanic(t, "Wait on a redeemed offset", func() { h.Wait(b1.Offset(1)) })
	MustPanic(t, "Wait on an offset past the end of the last batch", func() { h.Wait(b2.Offset(3)) })
	MustPanic(t, "Wait on the ticket of an empty batch", func() { h.Wait(empty) })
	MustPanic(t, "TryWait on another handle's batch ticket", func() { h.TryWait(foreign.Offset(1)) })
	for i, want := range []uint64{long + 5, long + 6} {
		if v := other.Wait(foreign.Offset(i)); v != want {
			t.Fatalf("the other handle's Wait(offset %d) = %d, want %d", i, v, want)
		}
	}

	if s.OwesContended {
		held := make(chan uint64)
		go func() { held <- other.Apply(OpGate, 0) }()
		<-obj.Entered
		tk := batch(h, 2) // returns although the section is held
		if _, err := h.TryWait(tk.Offset(1)); !errors.Is(err, core.ErrNotReady) {
			t.Fatalf("TryWait(offset 1) with the critical section held = %v, want ErrNotReady", err)
		}
		if _, err := h.WaitTimeout(tk, 5*time.Millisecond); !errors.Is(err, core.ErrWaitTimeout) {
			t.Fatalf("WaitTimeout(offset 0) with the critical section held = %v, want ErrWaitTimeout", err)
		}
		close(obj.Release)
		if v, err := h.WaitTimeout(tk.Offset(1), time.Minute); v != long+9 || err != nil {
			t.Fatalf("WaitTimeout(offset 1) after release = (%d, %v), want (%d, nil)", v, err, long+9)
		}
		wait(tk, long+8)
		if v := <-held; v != long+7 {
			t.Fatalf("holder's Apply = %d, want %d", v, long+7)
		}
	}
	sys.close(t)
}

// closeDrains: operations submitted before Close stay redeemable after
// it, at every depth the window allows.
func closeDrains(t *testing.T, s Subject) {
	for depth := 1; depth <= queueCap; depth++ {
		obj := newObject()
		sys := s.Open(t, obj, queueCap)
		if sys.Ex == nil {
			return // a bare SyncHandle has nothing to close
		}
		h := sys.Handle()
		tks := make([]core.Ticket, depth)
		for i := range tks {
			tks[i] = submit(t, sys, h, 0)
		}
		sys.close(t)
		for i, tk := range tks {
			if v := h.Wait(tk); v != uint64(i) {
				t.Fatalf("depth %d: Wait(ticket %d) after Close = %d", depth, i, v)
			}
		}
		if obj.State != uint64(depth) {
			t.Fatalf("depth %d: %d operations executed", depth, obj.State)
		}
	}
}

// poisonMidWindow: the object panics at the third of a window of
// submissions. Every ticket issued still redeems — zeros with the
// *PoisonError from the fault on; before it the true result, or a zero
// when the operation shared the faulting DispatchBatch run, whose
// results are all void — and the handle fails fast afterwards.
func poisonMidWindow(t *testing.T, s Subject) {
	const fuse = 2
	obj := newObject()
	obj.Fuse = fuse
	sys := s.Open(t, obj, 2*queueCap)
	if sys.Ex == nil {
		return // a bare function has no latch: its panic is the caller's
	}
	h := sys.Handle()
	var tks []core.Ticket
	for i := 0; i < 2*queueCap; i++ {
		tk, err := h.Submit(0, 0)
		if err != nil { // fast-fail once the fault has latched
			if !errors.Is(err, core.ErrPoisoned) {
				t.Fatalf("Submit %d: %v, want ErrPoisoned", i, err)
			}
			break
		}
		tks = append(tks, tk)
		sys.step()
	}
	if len(tks) <= fuse {
		t.Fatalf("only %d tickets issued before the fast-fail; the fault is at operation %d", len(tks), fuse)
	}
	for i, tk := range tks {
		v, err := h.WaitTimeout(tk, time.Minute)
		if (v != 0 && (i >= fuse || v != uint64(i))) || (err != nil && !errors.Is(err, core.ErrPoisoned)) {
			t.Fatalf("WaitTimeout(ticket %d) = (%d, %v) with the fault at operation %d", i, v, err, fuse)
		}
		var pe *core.PoisonError
		if i >= fuse && !errors.As(err, &pe) {
			t.Fatalf("ticket %d completed after the fault without the *PoisonError: %v", i, err)
		}
		sys.step()
	}
	if v := h.Apply(0, 0); v != 0 {
		t.Errorf("Apply on a poisoned executor = %d, want 0", v)
	}
	if err := h.Post(0, 0); !errors.Is(err, core.ErrPoisoned) {
		t.Errorf("Post on a poisoned executor = %v, want ErrPoisoned", err)
	}
	tk, err := h.SubmitBatch(make([]core.Req, 3))
	if !errors.Is(err, core.ErrPoisoned) {
		t.Errorf("SubmitBatch on a poisoned executor = %v, want ErrPoisoned", err)
	}
	for i := 0; i < 3; i++ { // and no ticket was issued
		MustPanic(t, "Wait on the ticket of a refused batch", func() { h.Wait(tk.Offset(i)) })
	}
	res := []uint64{7, 7, 7}
	h.ApplyBatch(make([]core.Req, 3), res)
	if res[0]|res[1]|res[2] != 0 {
		t.Errorf("ApplyBatch on a poisoned executor left %v, want zeros", res)
	}
	if !errors.Is(h.Err(), core.ErrPoisoned) || !errors.Is(sys.Ex.Close(), core.ErrPoisoned) {
		t.Errorf("Err() = %v: the handle and Close must report the poison", h.Err())
	}
	if obj.State != fuse {
		t.Errorf("object advanced to %d past the fault at %d", obj.State, fuse)
	}
}
