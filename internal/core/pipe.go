package core

import (
	"errors"
	"time"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// Ticket identifies one outstanding asynchronous operation. A Ticket is
// meaningful only to the Handle that issued it and must be redeemed
// with that Handle's Wait exactly once (or settled by Flush, which
// banks the result for a later Wait).
type Ticket struct{ seq uint64 }

// Offset names the i-th request of the SubmitBatch that returned t: a
// batch takes consecutive tickets, so its first ticket and an offset
// name them all. Offsetting past the end of the batch yields a ticket
// that is not outstanding (or is somebody else's), and waiting on it is
// the misuse every Wait reports.
func (t Ticket) Offset(i int) Ticket { return Ticket{t.seq + uint64(i)} }

// TicketMisuse is the one misuse panic of the wait family, whichever
// construction — or shard router — is underneath.
const TicketMisuse = "core: Wait on a ticket that is not outstanding (already waited, or issued by another handle)"

// Transport is what a construction supplies beneath the handle
// pipeline: how a run of requests executes, and — where it can leave
// completions owed (Owing) — how they come back. Everything else is
// Pipe's, once, for every construction: tickets, the in-flight bound,
// banking, Post discards, Flush, the bounded waits, poison
// short-circuits, latency sampling, and when a run executes.
//
// A transport is driven by its handle's goroutine only. Completions
// come back in the order their runs were handed over (per-handle FIFO
// is the construction's obligation; the pipeline relies on it and never
// reorders).
type Transport interface {
	// Run executes reqs in order, behind everything the handle ran
	// before, as few DispatchBatch runs as the construction can make of
	// it, and returns how many of them it left owed: the first owed
	// completions come through Next, and rets[i] holds reqs[i]'s result
	// for every i >= owed. A lock executes the run under one acquisition
	// and CC-Synch publishes it as one chain cell and completes that,
	// owing nothing; HybComb registers a prefix with an open round and
	// executes the rest as its own round's run; MP-SERVER copies the run
	// into the handle's run cell, sends it as one message and owes it
	// all; SHM-SERVER's one slot loops round trips. Run may block for
	// back-pressure or combiner duty, never for another thread to serve
	// what it leaves owed. len(reqs) >= 1, len(rets) == len(reqs) and
	// room >= 1.
	//
	// room is how many completions the window can still take: Run leaves
	// at most room owed, and an Owing transport that reaches room owed
	// stops there and returns room, handing nothing after reqs[room-1]
	// over — the pipeline makes room and hands the rest over in a later
	// Run. A return below room means the whole run was handed over. The
	// pipeline hands over its pending run once the transport owes nothing
	// older, and a batch with no run pending, or a submission on an eager
	// pipe (pipeSpec.Eager), at once.
	Run(reqs []Req, rets []uint64, room int) (owed int)
}

// Owing is a Transport whose runs can leave completions owed: a run is
// a message (MP-SERVER) or registrations with another thread's round
// (HybComb).
type Owing interface {
	Transport

	// Next delivers the oldest completion the transport owes. With
	// block it waits for it — performing any duty the wait implies —
	// and ok is always true; without, it still performs that duty but
	// returns ok=false rather than wait for another thread to serve it.
	// The pipeline calls it only while the transport owes a completion.
	Next(block bool) (val uint64, ok bool)
}

// recvReply is both Owing transports' reply wait: it receives the next
// one-word reply off q, and with block it waits for it on w, so the
// wait runs in w's role and the stall watchdog and the schedule
// perturber see it whether or not the watchdog is armed. q is the ring
// both reply queues embed (MP-SERVER's Spsc, HybComb's Mpsc), so the
// receive is a direct call that inlines, not an interface call.
func recvReply(q *mpq.Ring, w *backoff.Watched, block bool) (uint64, bool) {
	m, ok := q.TryRecv()
	if !ok && block {
		w.Reset()
		for !ok {
			w.Wait()
			m, ok = q.TryRecv()
		}
	}
	return m.W[0], ok
}

// pipeSpec is what a construction's NewHandle assembles a handle from.
type pipeSpec struct {
	Transport Transport
	// Apply is the blocking round trip of one operation, used only while
	// nothing is in flight — so the uncontended critical section pays no
	// window bookkeeping. It is a bare func rather than a Transport
	// method so that SyncHandle(f).Apply is one call of f.
	Apply func(op, arg uint64) uint64
	// Latch is the executor's fault state; nil for an adapted bare
	// function, which has none.
	Latch *PoisonLatch
	// Rec takes the latency samples (nil when telemetry is disarmed).
	Rec *telemetry.Recorder
	// Depth bounds the operations in flight (Options.QueueCap), pending
	// in the run or owed. It matters to every transport but one that
	// completes each submission on the spot.
	Depth int
	// Waiter is the transport's own watched waiter, borrowed by
	// WaitTimeout's deadline loop so a wedged construction still trips
	// the stall watchdog under its own label.
	Waiter *backoff.Watched
	// Eager: each submission is handed to Run at once, as a run of one,
	// instead of joining the pending run until a completion is demanded.
	// Only newImmediatePipe sets it, for a transport that completes
	// every submission on the spot (SHM-SERVER's one slot, SyncHandle:
	// there is nothing to gather); every other handle defers, the
	// hybrid's in both modes.
	Eager bool
}

// pipeHot is a Pipe's state; see Pipe for the padding.
type pipeHot struct {
	spec pipeSpec // Waiter never nil, Depth at least 1

	win  mpq.Window
	cnt  counts   // the handle's counter cell; the transport counts its rounds here
	done []uint64 // batch's done scratch: SubmitBatch, ApplyBatch(reqs, nil)

	owing Owing // spec.Transport where it can owe, else nil

	// run is the deferred window. It comes last, so the fields Apply
	// reads stay on the lines they had.
	run deferredRun
}

// Pipe is the one Handle implementation: a ticket window over a
// construction's Transport and the one deferred run the window fills,
// whose execution the Pipe schedules. See DESIGN.md "Handle pipeline". Handles
// of different threads are allocated side by side, and a pipelining
// thread writes its window on every operation, so the state is rounded
// up to whole cache lines like the transports'.
type Pipe struct {
	pipeHot
	_ [pad.CacheLine - unsafe.Sizeof(pipeHot{})%pad.CacheLine]byte
}

var _ Handle = (*Pipe)(nil)

// newPipe builds the handle for one goroutine over spec.
func newPipe(spec pipeSpec) *Pipe {
	if spec.Waiter == nil {
		spec.Waiter = new(backoff.Watched)
	}
	spec.Depth = max(spec.Depth, 1)
	p := &Pipe{pipeHot: pipeHot{spec: spec}}
	p.owing, _ = spec.Transport.(Owing)
	// The run never holds more than the window, so it is sized once here
	// and deferring into it never allocates.
	p.run = deferredRun{pend: make([]Req, 0, spec.Depth), rets: make([]uint64, 0, spec.Depth)}
	return p
}

// newImmediatePipe builds the handle of a construction that cannot
// leave a completion owed (SHM-SERVER's single request slot, an
// adapted bare function): every submission runs apply on the spot and
// banks the result, and a batch is a loop of them.
func newImmediatePipe(apply func(op, arg uint64) uint64, latch *PoisonLatch, rec *telemetry.Recorder) *Pipe {
	return newPipe(pipeSpec{Transport: immediate{apply}, Apply: apply, Latch: latch, Rec: rec, Eager: true})
}

// SyncHandle adapts a bare apply function into a full Handle with
// immediate completion — the escape hatch for application-registered
// executors whose transport has no natural submit/complete split. The
// returned handle is per-goroutine like every other. An adapted
// function has no servicing path of its own and therefore no poison
// latch; the adapting application owns its fault handling.
func SyncHandle(apply func(op, arg uint64) uint64) Handle {
	return newImmediatePipe(apply, nil, nil)
}

type immediate struct {
	apply func(op, arg uint64) uint64
}

func (t immediate) Run(reqs []Req, rets []uint64, _ int) (owed int) {
	for i, r := range reqs {
		rets[i] = t.apply(r.Op, r.Arg)
	}
	return 0
}

func (p *Pipe) poisoned() bool { return p.spec.Latch != nil && p.spec.Latch.Poisoned() }

// Err implements Handle.
func (p *Pipe) Err() error {
	if p.spec.Latch == nil {
		return nil
	}
	return p.spec.Latch.Err()
}

// InFlight returns how many of this handle's operations are shipped
// and not yet completed.
func (p *Pipe) InFlight() int { return p.win.InFlight() }

// Apply implements Handle. With nothing in flight it is the
// transport's blocking round trip and touches no ticket state; the
// common case — disarmed or unsampled — is kept to the checks and the
// call, with no local live across it.
func (p *Pipe) Apply(op, arg uint64) uint64 {
	if p.poisoned() {
		return 0
	}
	if p.win.InFlight() != 0 || p.spec.Rec.Sample() {
		return p.applySlow(op, arg)
	}
	return p.spec.Apply(op, arg)
}

// applySlow is Apply behind in-flight submissions, or sampled. Behind
// submissions it must queue (per-handle FIFO), so it composes literally
// as Submit+Wait and Wait takes the sample. The latency sampling rule is one for every
// construction: each blocking call of the contract — Apply, Wait,
// ApplyBatch — is one sampling opportunity, whatever it finds banked;
// the disarmed cost is Sample's nil check, and the clock is read only
// on sampled calls.
func (p *Pipe) applySlow(op, arg uint64) uint64 {
	if p.win.InFlight() != 0 {
		return p.Wait(Ticket{p.ship(op, arg, false)})
	}
	t0 := time.Now()
	v := p.spec.Apply(op, arg)
	p.spec.Rec.Latency(t0)
	return v
}

// settle moves the oldest in-flight completion into its window slot;
// false only when block is false and it has not arrived. In shipping
// order a handle has in flight what its transport owes, then the run's
// results not yet handed back, then the pending run. So while the
// transport owes more than the run holds the completion is Next's;
// otherwise it is the run's next result, once the pending run has been
// taken and Run — whose owed prefix, if any, comes first through Next.
func (p *Pipe) settle(block bool) bool {
	r := &p.run
	if p.win.InFlight() == r.holds() && !r.ready() {
		reqs, rets := r.take()
		r.head = p.spec.Transport.Run(reqs, rets, len(reqs))
	}
	if p.win.InFlight() == r.holds() {
		p.win.Arrive(r.next())
		return true
	}
	v, ok := p.owing.Next(block)
	if ok {
		p.win.Arrive(v)
	}
	return ok
}

// makeRoom keeps the operations in flight below the bound — so a server
// or combiner can never block on this handle's full response queue —
// by settling the oldest when the window is full (a submit stall).
func (p *Pipe) makeRoom() {
	if p.win.InFlight() >= p.spec.Depth {
		p.cnt.stalls++
		if p.spec.Latch != nil {
			p.spec.Latch.Tel.NoteSubmitStall()
		}
		p.settle(true)
	}
}

// issue opens the window slot of an operation just shipped and raises
// the handle's depth count to the window's new in-flight depth.
func (p *Pipe) issue() uint64 {
	seq := p.win.Issue()
	if d := uint64(p.win.InFlight()); d > p.cnt.depth {
		p.cnt.depth = d
	}
	return seq
}

// ship takes one operation into the pipeline and returns its ticket
// number. It joins the pending run — or, on an eager pipe with no run
// held, executes at once as a run of one; a discarded operation that
// completed on the spot needs no ticket.
func (p *Pipe) ship(op, arg uint64, discard bool) uint64 {
	p.makeRoom()
	if p.spec.Eager && p.run.holds() == 0 {
		// A run of one, in the idle run's buffers.
		reqs, rets := p.run.pend[:1], p.run.rets[:1]
		reqs[0] = Req{Op: op, Arg: arg}
		if p.spec.Transport.Run(reqs, rets, 1) == 0 {
			if discard {
				return 0
			}
			return p.win.IssueDone(rets[0])
		}
	} else {
		p.run.add(op, arg)
	}
	seq := p.issue()
	if discard {
		p.win.Discard(seq)
	}
	return seq
}

// Submit implements Handle. On a poisoned executor it fails fast with
// the *PoisonError and no ticket is issued.
func (p *Pipe) Submit(op, arg uint64) (Ticket, error) {
	if err := p.Err(); err != nil {
		return Ticket{}, err
	}
	return Ticket{p.ship(op, arg, false)}, nil
}

// Post implements Handle: the window slot, if the operation needs one,
// drops the result on arrival.
func (p *Pipe) Post(op, arg uint64) error {
	if err := p.Err(); err != nil {
		return err
	}
	p.ship(op, arg, true)
	return nil
}

// Flush implements Handle: settle everything in flight, banking
// unwaited Submit results and dropping Post results.
func (p *Pipe) Flush() {
	for p.win.InFlight() > 0 {
		p.settle(true)
	}
}

// wait redeems ticket seq, settling older completions into their slots
// on the way: an out-of-order Wait banks what it passes.
func (p *Pipe) wait(seq uint64) uint64 {
	for {
		switch v, st := p.win.Take(seq); st {
		case mpq.Ready:
			return v
		case mpq.Invalid:
			panic(TicketMisuse)
		}
		p.settle(true)
	}
}

// Wait implements Handle.
func (p *Pipe) Wait(t Ticket) uint64 {
	sampled := p.spec.Rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	v := p.wait(t.seq)
	if sampled {
		p.spec.Rec.Latency(t0)
	}
	return v
}

// TryWait implements Handle.
func (p *Pipe) TryWait(t Ticket) (uint64, error) {
	for {
		switch v, st := p.win.Take(t.seq); st {
		case mpq.Ready:
			return v, p.Err()
		case mpq.Invalid:
			panic(TicketMisuse)
		}
		if !p.settle(false) {
			return 0, ErrNotReady
		}
	}
}

// WaitTimeout implements Handle: TryWait in a deadline loop. The bound
// covers waiting on other threads' progress; a completion that has
// arrived is settled to the end (including combining duty it carries)
// regardless of d.
func (p *Pipe) WaitTimeout(t Ticket, d time.Duration) (uint64, error) {
	v, err := p.TryWait(t)
	if !errors.Is(err, ErrNotReady) {
		return v, err
	}
	deadline := time.Now().Add(d)
	p.spec.Waiter.Reset()
	for {
		p.spec.Waiter.Wait()
		if v, err = p.TryWait(t); !errors.Is(err, ErrNotReady) {
			return v, err
		}
		if !time.Now().Before(deadline) {
			return 0, ErrWaitTimeout
		}
	}
}

// scratch returns the handle's done buffer, n long.
func (p *Pipe) scratch(n int) []uint64 {
	if cap(p.done) < n {
		p.done = make([]uint64, n)
	}
	return p.done[:n]
}

// SubmitBatch implements Handle: the batch path with nothing waited
// for. Whatever it ticketed sits in the window already; the run executed
// on the spot is banked behind that, so the batch holds consecutive
// tickets from the window's next sequence number on.
func (p *Pipe) SubmitBatch(reqs []Req) (Ticket, error) {
	if err := p.Err(); err != nil {
		return Ticket{}, err
	}
	first := Ticket{p.win.Next()}
	if len(reqs) == 0 {
		return first, nil
	}
	done := p.scratch(len(reqs))
	ticketed := p.batch(reqs, done)
	for _, v := range done[ticketed:] {
		p.win.IssueDone(v)
	}
	return first, nil
}

// ApplyBatch implements Handle: the prologue every construction shares,
// then SubmitBatch's batch path and a wait for the ticketed prefix,
// under one latency sample. The run the transport executed on the spot
// is written straight into results and never sees a ticket.
func (p *Pipe) ApplyBatch(reqs []Req, results []uint64) {
	switch {
	case len(reqs) == 0:
		return
	case p.poisoned():
		if results != nil {
			zeroResults(results[:len(reqs)])
		}
		return
	case len(reqs) == 1: // a 1-batch is exactly the scalar critical section
		v := p.Apply(reqs[0].Op, reqs[0].Arg)
		if results != nil {
			results[0] = v
		}
		return
	}
	if results == nil {
		// Combiners and locks need somewhere to write the run's results.
		results = p.scratch(len(reqs))
	}
	sampled := p.spec.Rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	first := p.win.Next()
	ticketed := p.batch(reqs, results[:len(reqs)])
	for i := 0; i < ticketed; i++ {
		results[i] = p.wait(first + uint64(i))
	}
	if sampled {
		p.spec.Rec.Latency(t0)
	}
}

// batch is SubmitBatch's and ApplyBatch's one path. It returns
// how many of reqs it ticketed: the first ticketed requests took the
// handle's next window slots, and done[i] holds reqs[i]'s result for
// every i >= ticketed — a run executed on the spot, which costs
// ApplyBatch no ticket at all. Behind a run still held, every request
// joins the pending run, so the batch executes with — and after — what
// it queued behind. Otherwise the batch is one run handed to the
// transport at once with the window's room; where the transport stops at
// the room, every request it took is owed, and the rest is handed over
// again once the oldest completion has made room.
func (p *Pipe) batch(reqs []Req, done []uint64) (ticketed int) {
	if p.run.holds() != 0 {
		for _, q := range reqs {
			p.makeRoom()
			p.run.add(q.Op, q.Arg)
			p.issue()
		}
		return len(reqs)
	}
	for {
		p.makeRoom()
		room := p.spec.Depth - p.win.InFlight()
		owed := p.spec.Transport.Run(reqs[ticketed:], done[ticketed:], room)
		for range owed {
			p.issue()
		}
		if ticketed += owed; owed < room || ticketed == len(reqs) {
			return ticketed
		}
	}
}

// Immediate is the ticket bank of a Handle implemented outside this
// package over a transport that completes every submission on the
// spot: Complete banks an already-computed result and returns its
// ticket, Take withdraws it. The zero value is ready to use; not safe
// for concurrent use.
type Immediate struct{ win mpq.Window }

// Complete banks an already-computed result and returns its ticket.
func (im *Immediate) Complete(val uint64) Ticket { return Ticket{im.win.IssueDone(val)} }

// Take withdraws t's banked result. Waiting a ticket twice — or a
// ticket issued by another handle — is a programming error and panics.
func (im *Immediate) Take(t Ticket) uint64 {
	v, st := im.win.Take(t.seq)
	if st != mpq.Ready {
		panic(TicketMisuse)
	}
	return v
}
