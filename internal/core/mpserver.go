package core

import (
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
	"hybsync/internal/pad"
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
// QueueCap requests in flight per handle (shipping one sends without
// blocking on the reply; the handle's window numbers the replies as
// they come off the response ring). Per-sender FIFO on the request ring
// plus in-order service plus the FIFO response ring give per-handle
// FIFO completion. A handle bounds its in-flight count by the response
// ring's capacity, so the server's response send never blocks.
type MPServer struct {
	Shell
	obj  Object
	reqs *mpq.Mpsc // any client sends, only serve receives
	// resp[id] is handle id's response ring (QueueCap deep, SPSC:
	// server → client), created by NewHandle. The server learns an id
	// only from a request that handle sent, and the request ring's
	// publication orders the slot's write before the server's read.
	resp []*mpq.Spsc
	done chan struct{}
	ps   PipeCounters
}

// opQuit is an internal opcode that stops the server loop.
const opQuit = ^uint64(0)

// NewMPServer starts the server goroutine. Close must be called to stop
// it.
func NewMPServer(obj Object, opts Options) *MPServer {
	s := &MPServer{obj: obj, done: make(chan struct{})}
	s.Init("mpserver", opts)
	s.reqs = mpq.NewMpsc(s.Opts.QueueCap)
	s.resp = make([]*mpq.Spsc, s.Opts.MaxThreads)
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
	rec := s.Opts.Telemetry.Recorder() // server-goroutine owned
	buf := make([]mpq.Msg, s.Opts.batchLen())
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
	id, err := s.Admit()
	if err != nil {
		return nil, err
	}
	// QueueCap deep (not 1): the response ring is the completion stream
	// of the handle's submission pipeline, and must hold one reply per
	// in-flight request.
	s.resp[id] = mpq.NewSpsc(s.Opts.QueueCap)
	t := &mpTransport{mpTransportHot: mpTransportHot{s: s, id: uint64(id), resp: s.resp[id]}}
	s.Arm(&t.wb, "mpserver: client awaiting response")
	return NewPipe(PipeSpec{Transport: t, Apply: t.apply, Latch: &s.PoisonLatch, Rec: s.Opts.Telemetry.Recorder(),
		Counters: &s.ps, Depth: s.Opts.QueueCap, Waiter: &t.wb}), nil
}

// Close stops the server goroutine, draining the request ring first so
// every operation submitted before Close has its response banked on
// its client's ring — outstanding tickets stay redeemable with Wait.
// It is idempotent; no operation may be issued afterwards. On a
// poisoned executor Close still stops the server and reports the
// *PoisonError.
func (s *MPServer) Close() error {
	if s.Seal() {
		s.reqs.Send(mpq.Words3(0, opQuit, 0))
		<-s.done
	}
	return s.Err()
}

// Pipeline implements PipelineStats.
func (s *MPServer) Pipeline() (submitStalls, maxDepth uint64) { return s.ps.Pipeline() }

// mpTransport is one client's path to the server: requests go out on the
// shared MPSC ring, replies come back on the client's own SPSC ring in
// submission order. Every request is a message, so nothing completes on
// the spot and a batch is simply pipelined.
type mpTransportHot struct {
	s    *MPServer
	id   uint64
	resp *mpq.Spsc
	wb   backoff.Watched // awaiting a reply, under the stall watchdog
}

// mpTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type mpTransport struct {
	mpTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(mpTransportHot{})%pad.CacheLine]byte
}

func (t *mpTransport) apply(op, arg uint64) uint64 {
	t.s.reqs.Send(mpq.Words3(t.id, op, arg))
	v, _ := t.Next(true)
	return v
}

// Ship implements Transport.
func (t *mpTransport) Ship(op, arg uint64) (uint64, Shipped) {
	t.s.reqs.Send(mpq.Words3(t.id, op, arg))
	return 0, ShipOwed
}

// Next implements Transport. The server replies to a Post like to any
// request (it cannot know the client does not care); the window drops
// that reply on arrival.
func (t *mpTransport) Next(block bool) (uint64, bool) { return mpq.RecvWord(t.resp, &t.wb, block) }

// Batch implements Transport.
func (t *mpTransport) Batch(p *Pipe, reqs []Req, _ []uint64) int { return p.ShipAll(reqs) }
