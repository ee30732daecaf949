package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"hybsync/internal/mpq"
	"hybsync/internal/telemetry"
)

// MPServer is the paper's MP-SERVER: a dedicated server goroutine owns
// the protected object and executes every critical section; clients send
// {id, op, arg} request messages and block on a one-message response
// queue. The server's receive reads from a local queue and its response
// send never blocks (each client bounds its in-flight requests by its
// response ring's capacity), so — as on the hardware — no
// synchronization-related waiting remains on the server's critical path
// while requests are pending.
//
// The transport is role-specialized (the paper's §5 theme that the
// request/response path must be as lean as the hardware's): the request
// queue is an mpq.Mpsc (clients claim send slots with one fetch-and-add;
// the server never CASes) and each response queue is an mpq.Spsc (no
// atomic read-modify-write at all). The server drains up to MaxOps
// pending requests per wakeup (capped at 256 per receive by
// Options.batchLen) with a batched receive — and hands the whole
// drained run to the object as ONE DispatchBatch call, scattering the
// responses to the per-client rings after the call returns. Batching
// thus amortizes both the queue synchronization (RecvBatch) and the
// dispatch indirection (DispatchBatch) across the run.
//
// MPServer is the construction where asynchronous submission pays off
// most directly: a request is a message, so a client may keep up to
// QueueCap requests in flight per handle (Submit sends without
// blocking on the reply; Wait collects replies through a ticketed
// receive on the response ring). Per-sender FIFO on the request ring
// plus in-order service plus the FIFO response ring give per-handle
// FIFO completion. A handle bounds its in-flight count by the response
// ring's capacity, so the server's response send never blocks.
type MPServer struct {
	PoisonLatch
	opts Options
	obj  Object
	reqs mpq.Queue // MPSC: any client sends, only serve receives
	// resp[id] is handle id's response ring (QueueCap deep, SPSC:
	// server → client), created by NewHandle. The server learns an id
	// only from a request that handle sent, and the request ring's
	// publication orders the slot's write before the server's read.
	resp    []mpq.Queue
	nextID  atomic.Int32
	stopped atomic.Bool
	done    chan struct{}
	ps      PipeCounters
}

// opQuit is an internal opcode that stops the server loop.
const opQuit = ^uint64(0)

// NewMPServer starts the server goroutine. Close must be called to stop
// it.
func NewMPServer(obj Object, opts Options) *MPServer {
	opts.fill()
	s := &MPServer{
		opts: opts,
		obj:  obj,
		reqs: opts.newMpscQueue(),
		resp: make([]mpq.Queue, opts.MaxThreads),
		done: make(chan struct{}),
	}
	s.Algo = "mpserver"
	s.Tel = opts.Telemetry
	go s.serve()
	return s
}

// serve is the server loop: drain a batch of requests per wakeup,
// execute the run as one DispatchBatch, then scatter the responses.
// Batching pays the blocking-receive synchronization and the dispatch
// indirection once for up to batchLen requests; the price is that the
// first client of a run now waits for the whole run before its
// response goes out — the flat-combining trade the paper's combiners
// make on every round.
//
// Dispatch runs through the poison latch: a panic escaping the object
// poisons the executor, and the loop carries on replying (zeros from
// then on) so every in-flight and future request still completes —
// the server never dies silently with waiters blocked on its rings.
func (s *MPServer) serve() {
	defer close(s.done)
	rec := s.opts.Telemetry.Recorder() // server-goroutine owned
	buf := make([]mpq.Msg, s.opts.batchLen())
	ids := make([]uint64, len(buf))
	run := make([]Req, 0, len(buf))
	rets := make([]uint64, len(buf))
	// serveBatch executes one drained batch, skipping (but remembering)
	// the quit marker: requests that landed behind opQuit in the ring
	// still get served and answered, so a draining Close completes them
	// instead of dropping them on the floor.
	serveBatch := func(msgs []mpq.Msg) (quit bool) {
		run = run[:0]
		for _, m := range msgs {
			if m.W[1] == opQuit {
				quit = true
				continue
			}
			ids[len(run)] = m.W[0]
			run = append(run, Req{Op: m.W[1], Arg: m.W[2]})
		}
		if len(run) > 0 {
			s.PoisonLatch.Dispatch(s.obj, run, rets[:len(run)])
			rec.RunLen(len(run))
			for i := range run {
				s.resp[ids[i]].Send(mpq.Word(rets[i]))
			}
		}
		return quit
	}
	for {
		if serveBatch(buf[:s.reqs.RecvBatch(buf)]) {
			// Draining close: serve everything already published on the
			// request ring, then exit. Requests submitted before Close
			// claimed their ring slots before opQuit's send, so after
			// this drain every outstanding ticket has its response
			// banked on its client's ring.
			for {
				n := s.reqs.TryRecvBatch(buf)
				if n == 0 {
					return
				}
				serveBatch(buf[:n])
			}
		}
	}
}

// NewHandle implements Executor.
func (s *MPServer) NewHandle() (Handle, error) {
	if err := s.Err(); err != nil {
		return nil, fmt.Errorf("core: mpserver: %w", err)
	}
	if s.stopped.Load() {
		return nil, fmt.Errorf("core: mpserver: %w", ErrClosed)
	}
	id := s.nextID.Add(1) - 1
	if int(id) >= s.opts.MaxThreads {
		return nil, errTooManyHandles(s.opts.MaxThreads)
	}
	// QueueCap deep (not 1): the response ring is the completion stream
	// of the handle's submission pipeline, and must hold one reply per
	// in-flight request.
	s.resp[id] = s.opts.newSpscQueue(s.opts.QueueCap)
	tk := mpq.NewTicketed(s.resp[id])
	tk.Arm(s.opts.StallTimeout, "mpserver: client awaiting response")
	tk.OnStall(s.opts.Telemetry.StallHook())
	return &mpHandle{
		s:   s,
		id:  uint64(id),
		tk:  tk,
		rec: s.opts.Telemetry.Recorder(),
	}, nil
}

// Close stops the server goroutine, draining the request ring first so
// every operation submitted before Close has its response banked on
// its client's ring — outstanding tickets stay redeemable with Wait.
// It is idempotent; no operation may be issued afterwards. On a
// poisoned executor Close still stops the server and reports the
// *PoisonError.
func (s *MPServer) Close() error {
	if s.stopped.CompareAndSwap(false, true) {
		s.reqs.Send(mpq.Words3(0, opQuit, 0))
		<-s.done
	}
	return s.Err()
}

// Pipeline implements PipelineStats.
func (s *MPServer) Pipeline() (submitStalls, maxDepth uint64) { return s.ps.Pipeline() }

// Telemetry implements TelemetrySource.
func (s *MPServer) Telemetry() *telemetry.Telemetry { return s.opts.Telemetry }

// mpHandle is one client's pipeline over the server: requests go out on
// the shared MPSC ring, replies come back on the client's own SPSC ring
// as a ticketed completion stream. Every submission is ring-bound and
// replies arrive in submission order, so a ticket's sequence number IS
// its stream position — no per-ticket bookkeeping beyond the Ticketed
// adapter.
type mpHandle struct {
	s   *MPServer
	id  uint64
	tk  *mpq.Ticketed
	dt  DepthTracker
	rec *telemetry.Recorder
	pos []uint64 // ApplyBatch stream-position scratch
}

// submit ships the request, first making room in the pipeline when
// QueueCap operations are already in flight (absorbing one reply keeps
// the server's response send non-blocking).
func (h *mpHandle) submit(op, arg uint64) uint64 {
	if h.tk.InFlight() >= h.s.opts.QueueCap {
		h.s.ps.NoteStall()
		h.s.opts.Telemetry.NoteSubmitStall()
		h.tk.Absorb()
	}
	pos := h.tk.Issue()
	h.s.reqs.Send(mpq.Words3(h.id, op, arg))
	h.dt.Note(&h.s.ps, h.tk.InFlight())
	return pos
}

// Apply implements Handle: ship the request, block on the response —
// literally Submit followed by Wait. On a poisoned executor it
// short-circuits to the poisoned zero without touching the transport.
func (h *mpHandle) Apply(op, arg uint64) uint64 {
	if h.s.Poisoned() {
		return 0
	}
	// One latency sample = one blocking call, submission to reply. The
	// disarmed cost is the Sample nil check; the clock is only read on
	// sampled calls.
	sampled := h.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	v := h.tk.WaitFor(h.submit(op, arg)).W[0]
	if sampled {
		h.rec.Latency(t0)
	}
	return v
}

// Submit implements Handle: ship the request, don't wait for the
// reply. On a poisoned executor it fails fast with the *PoisonError
// and no ticket is issued.
func (h *mpHandle) Submit(op, arg uint64) (Ticket, error) {
	if err := h.s.Err(); err != nil {
		return Ticket{}, err
	}
	return Ticket{seq: h.submit(op, arg)}, nil
}

// Wait implements Handle: collect t's reply from the completion stream.
func (h *mpHandle) Wait(t Ticket) uint64 {
	sampled := h.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	v := h.tk.WaitFor(t.seq).W[0]
	if sampled {
		h.rec.Latency(t0)
	}
	return v
}

// TryWait implements Handle.
func (h *mpHandle) TryWait(t Ticket) (uint64, error) {
	m, ok := h.tk.TryWaitFor(t.seq)
	if !ok {
		return 0, ErrNotReady
	}
	return m.W[0], h.s.Err()
}

// WaitTimeout implements Handle.
func (h *mpHandle) WaitTimeout(t Ticket, d time.Duration) (uint64, error) {
	m, ok := h.tk.WaitForTimeout(t.seq, d)
	if !ok {
		return 0, ErrWaitTimeout
	}
	return m.W[0], h.s.Err()
}

// Err implements Handle.
func (h *mpHandle) Err() error { return h.s.Err() }

// Post implements Handle: fire-and-forget. The server still replies (it
// cannot know the client does not care), so the reply's stream position
// is marked discarded and dropped on arrival.
func (h *mpHandle) Post(op, arg uint64) error {
	if err := h.s.Err(); err != nil {
		return err
	}
	if h.tk.InFlight() >= h.s.opts.QueueCap {
		h.s.ps.NoteStall()
		h.s.opts.Telemetry.NoteSubmitStall()
		h.tk.Absorb()
	}
	h.tk.Discard(h.tk.Issue())
	h.s.reqs.Send(mpq.Words3(h.id, op, arg))
	h.dt.Note(&h.s.ps, h.tk.InFlight())
	return nil
}

// Flush implements Handle: drain the completion stream, banking
// not-yet-waited results and dropping Post replies.
func (h *mpHandle) Flush() { h.tk.Flush() }

// ApplyBatch implements Handle: ship the whole batch back-to-back, then
// collect the replies in stream order. The requests land contiguously
// on the request ring (interleaved only with other clients'), so the
// server's drain sees the batch as part of one run and executes it
// through single DispatchBatch calls; the client pays one round-trip
// wait for the whole batch instead of one per operation.
func (h *mpHandle) ApplyBatch(reqs []Req, results []uint64) {
	if h.s.Poisoned() {
		if results != nil {
			zeroResults(results[:len(reqs)])
		}
		return
	}
	if cap(h.pos) < len(reqs) {
		h.pos = make([]uint64, len(reqs))
	}
	// One latency sample covers the whole batch call — submission of
	// the first request to collection of the last reply.
	sampled := h.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	pos := h.pos[:len(reqs)]
	for i, r := range reqs {
		pos[i] = h.submit(r.Op, r.Arg)
	}
	for i := range pos {
		v := h.tk.WaitFor(pos[i]).W[0]
		if results != nil {
			results[i] = v
		}
	}
	if sampled {
		h.rec.Latency(t0)
	}
}
