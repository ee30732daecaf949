package core

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
	"hybsync/internal/pad"
)

// MPServer is the paper's MP-SERVER: a server loop owns the protected
// object and executes every critical section; clients send request
// messages and block on a one-message response queue. The loop is one
// of the process's pooled server loops (see attach), which may serve
// other executors between this one's drains. The
// server's receive reads from a local queue and its response send never
// blocks (each client bounds its in-flight requests by its response
// ring's capacity), so — as on the hardware — no synchronization-related
// waiting remains on the server's critical path while requests are
// pending.
//
// The transport is role-specialized (the paper's §5 theme that the
// request/response path must be as lean as the hardware's): the request
// queue is an mpq.Mpsc (clients claim send slots with one fetch-and-add;
// the server never CASes) and each response queue is an mpq.Spsc (no
// atomic read-modify-write at all). The server drains up to MaxOps
// pending messages per drain (capped at 256 per receive by
// Options.batchLen) with a batched receive — and hands every request the
// drained messages carry to the object as ONE DispatchBatch call,
// scattering the responses after the call returns. Batching thus
// amortizes both the queue synchronization (TryRecvBatch) and the dispatch
// indirection (DispatchBatch) across the run.
//
// A message is one of two frames. A blocking Apply is one inline
// {id, op, arg} request answered by its result. A handle's pipelined
// window defers into its Pipe's run, as on the lock and the combiners,
// and when a completion is demanded the run travels as ONE message,
// {id|runFrame, start, n}: its requests sit in the handle's run cell (see
// mpRunCell) from slot start on, the server writes their results back
// into the same slots, and one reply word carrying n answers the lot —
// a window costs one ring cell, one server wake and one reply instead of
// one of each per request (the grouped request and response lines of
// ffwd, Roghanchi et al., SOSP 2017). A handle has at most QueueCap
// operations in flight, so its run cell never wraps onto a slot still
// owed and the server's response send never blocks. Per-sender FIFO on
// the request ring plus in-order service plus the FIFO response ring
// give per-handle FIFO completion.
type MPServer struct {
	server
	reqs *mpq.Mpsc // any client sends, only drain receives
	// peers[id] is handle id's transport, registered by NewHandle: a
	// drain finds the handle's response ring (QueueCap deep, SPSC:
	// server → client) and run cell there. It learns an id only from a
	// message that handle sent, and the request ring's publication
	// orders the slot's write, and the cell's, before the drain's reads.
	peers []atomic.Pointer[mpTransport]
}

// runFrame marks a run message in its first word, beside the sender's
// id, so a run takes no opcode from the object's.
const runFrame = uint64(1) << 63

// mpRunCell is one handle's run cell: a ring of request slots the client
// writes and the server reads, and a ring of result slots the server
// writes and the client reads, both indexed by position&mask. A run
// message names its first slot and its length. Each ring is its own
// allocation of whole cache lines (at least eight slots, a power of
// two), so it starts on a line of its own in every handle: the server's
// result writes never share a line with the client's transport state or
// another handle's cell.
type mpRunCell struct {
	reqs []Req
	rets []uint64
	mask uint64
}

func newRunCell(queueCap int) mpRunCell {
	n := 8
	for n < queueCap {
		n <<= 1
	}
	return mpRunCell{reqs: make([]Req, n), rets: make([]uint64, n), mask: uint64(n - 1)}
}

// NewMPServer builds the executor and attaches it to a loop of the
// server pool, which serves it until Close: Close must be called to
// let the loop go.
func NewMPServer(obj Object, opts Options) *MPServer {
	s := new(MPServer)
	s.init("mpserver", obj, opts)
	s.reqs = mpq.NewMpsc(s.Opts.QueueCap)
	s.peers = make([]atomic.Pointer[mpTransport], s.Opts.MaxThreads)
	attach(s, &s.server)
	return s
}

// drain implements source: receive a batch of messages, execute every
// request they carry as one DispatchBatch, then scatter the responses.
// Batching pays the receive synchronization and the dispatch
// indirection once for the whole drain; the price is that the first
// client of a drain now waits for all of it before its response goes
// out — the flat-combining trade the paper's combiners make on every
// round.
//
// Dispatch runs through the poison latch: a panic escaping the object
// poisons the executor, and the server carries on replying (zeros from
// then on) so every in-flight and future request still completes —
// the server never dies silently with waiters blocked on its rings.
func (s *MPServer) drain(sc *scratch) (served bool) {
	msgs := sc.inbox(s.Opts.batchLen())
	msgs = msgs[:s.reqs.TryRecvBatch(msgs)]
	if len(msgs) == 0 {
		return false
	}
	run := sc.run[:0]
	for _, m := range msgs {
		if m.W[0]&runFrame != 0 {
			c := &s.peers[m.W[0]&^runFrame].Load().cell
			for i := range m.W[2] {
				run = append(run, c.reqs[(m.W[1]+i)&c.mask])
			}
		} else {
			run = append(run, Req{Op: m.W[1], Arg: m.W[2]})
		}
	}
	sc.run = run
	rets := sc.results(len(run))
	s.PoisonLatch.Dispatch(s.obj, run, rets)
	s.rec.RunLen(len(run))
	for _, m := range msgs {
		if m.W[0]&runFrame != 0 {
			p := s.peers[m.W[0]&^runFrame].Load()
			n := m.W[2]
			for i, v := range rets[:n] {
				p.cell.rets[(m.W[1]+uint64(i))&p.cell.mask] = v
			}
			rets = rets[n:]
			p.resp.Send(mpq.Word(n))
		} else {
			s.peers[m.W[0]].Load().resp.Send(mpq.Word(rets[0]))
			rets = rets[1:]
		}
	}
	return true
}

// NewHandle implements Executor: the handle's transport, with its
// response ring and run cell, is registered with the server, and its
// window defers into its Pipe's run, which travels as one message when a
// completion is demanded.
func (s *MPServer) NewHandle() (Handle, error) {
	id, err := s.admit()
	if err != nil {
		return nil, err
	}
	// QueueCap deep (not 1): the response ring is the completion stream
	// of the handle's submission pipeline, and must hold one reply per
	// message in flight — at most one per operation.
	t := &mpTransport{mpTransportHot: mpTransportHot{s: s, id: uint64(id),
		resp: mpq.NewSpsc(s.Opts.QueueCap), cell: newRunCell(s.Opts.QueueCap)}}
	s.arm(&t.wb, "mpserver: client awaiting response")
	t.wb.Backoff = backoff.For(backoff.Reply)
	s.clients.join()
	s.peers[id].Store(t)
	return s.handle(pipeSpec{Transport: t, Apply: t.apply, Latch: &s.PoisonLatch, Rec: s.Opts.Telemetry.Recorder(),
		Depth: s.Opts.QueueCap, Waiter: &t.wb}), nil
}

// Pipeline implements PipelineStats.
func (s *MPServer) Pipeline() (submitStalls, maxDepth uint64) { return s.totals().pipeline() }

// mpTransport is one client's path to the server: messages go out on the
// shared MPSC ring, replies come back on the client's own SPSC ring in
// the order the messages went out, and a run's results in its run cell.
type mpTransportHot struct {
	// Set by NewHandle and read-only after; the server reads resp and
	// cell here too, so what the client writes per operation starts a
	// line further on.
	s    *MPServer
	id   uint64
	resp *mpq.Spsc
	cell mpRunCell
	_    pad.Line

	// tail is the cell position the next run starts at, head the
	// position of the oldest result not yet handed out, and ready how
	// many results from head on the replies received so far cover.
	tail, head uint64
	ready      int32
	// wb awaits a reply, in the Reply role and under the stall watchdog.
	wb backoff.Watched
}

// mpTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type mpTransport struct {
	mpTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(mpTransportHot{})%pad.CacheLine]byte
}

// apply is the blocking round trip, one inline request message. The
// pipeline calls it only with nothing in flight, so its reply is the
// next on the ring. After Close the reply is there once pastSeal
// returns.
func (t *mpTransport) apply(op, arg uint64) uint64 {
	t.s.reqs.Send(mpq.Words3(t.id, op, arg))
	t.s.pastSeal(t.s)
	v, _ := recvReply(&t.resp.Ring, &t.wb, true)
	return v
}

// Run implements Transport: the run up to the window's room is copied
// into the run cell from tail on and goes out as one message, and all of
// it is owed. Run never waits for the reply — only, on a full request
// ring, for the server to drain. The room bound is what keeps the copy
// off the slots still owed: the handle never has more than QueueCap
// operations in flight, and the cell has at least QueueCap slots.
//
// A run sent once Close has sealed the executor may be drained by its
// own sender (see server.pastSeal): its reply is then on the ring,
// and its results in the cell, when Run returns.
func (t *mpTransport) Run(reqs []Req, _ []uint64, room int) (owed int) {
	owed = min(len(reqs), room)
	c := &t.cell
	for i, r := range reqs[:owed] {
		c.reqs[(t.tail+uint64(i))&c.mask] = r
	}
	t.s.reqs.Send(mpq.Words3(t.id|runFrame, t.tail&c.mask, uint64(owed)))
	t.tail += uint64(owed)
	t.s.pastSeal(t.s)
	return owed
}

// Next implements Owing: the oldest owed result, out of the run cell. A
// run's one reply word, received when the first of its results is
// wanted, says how many of them the server has written. The server
// answers a Post like any request (it cannot know the client does not
// care); the window drops that result on arrival.
//
// A reply that is not there yet is a server round trip away. A blocking
// Next waits for it as a blocking Apply does, in the Reply role: it
// spins while the server and every registered client have a processor
// each, and where they outnumber the processors — the server may be the
// goroutine this one's processor should run — it yields first.
func (t *mpTransport) Next(block bool) (uint64, bool) {
	if t.ready == 0 {
		n, ok := recvReply(&t.resp.Ring, &t.wb, block)
		if !ok {
			return 0, false
		}
		t.ready = int32(n)
	}
	t.ready--
	v := t.cell.rets[t.head&t.cell.mask]
	t.head++
	return v, true
}
