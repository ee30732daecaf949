package core

import (
	"errors"
	"sync/atomic"
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
// pipeline: how one request travels and how its completion comes back.
// Everything else — tickets, the in-flight bound, banking, Post
// discards, Flush, the bounded waits, poison short-circuits, latency
// sampling, and the deferred run of a transport that defers — is
// Pipe's, once, for every construction.
//
// A transport is driven by its handle's goroutine only. Completions
// come back in shipping order (per-handle FIFO is the construction's
// obligation; the pipeline relies on it and never reorders).
type Transport interface {
	// Ship submits (op, arg) to execute after everything this handle
	// shipped before, and says what became of it (see Shipped). Ship may
	// block for back-pressure or combiner duty, never for the
	// operation's own result when the construction can overlap or
	// defer it.
	Ship(op, arg uint64) (val uint64, how Shipped)

	// Next delivers the oldest completion the transport owes. With
	// block it waits for it — performing any duty the wait implies,
	// such as an inherited combining round — and ok is always true;
	// without, it still performs that duty but returns ok=false rather
	// than wait for another thread to serve it. The pipeline calls it
	// only while the transport owes a completion.
	Next(block bool) (val uint64, ok bool)

	// Batch ships reqs in order, behind the handle's earlier
	// submissions — the construction's own way of turning one call into
	// as few DispatchBatch runs as it can. It returns how many of them
	// it ticketed: the first ticketed requests took the handle's next
	// window slots, one each (p.ShipAll, or makeRoom and issue around
	// every request left owed), and their completions come through
	// Next; the rest executed on the spot — a lock's one acquisition
	// with nothing else in flight, a combiner's own run — and done[i]
	// holds reqs[i]'s result for every i >= ticketed. The pipeline turns
	// that into tickets (SubmitBatch banks done's tail) or into results
	// (ApplyBatch passes its results slice as done and waits the
	// ticketed prefix), so a run executed on the spot costs no ticket at
	// all on the blocking path. len(reqs) >= 1 and len(done) ==
	// len(reqs); the empty and poisoned cases never reach here, and
	// neither does a batch behind a pending run, which the pipeline joins
	// to the run itself.
	Batch(p *Pipe, reqs []Req, done []uint64) (ticketed int)
}

// Shipped is what Ship did with an operation.
type Shipped uint8

const (
	// ShipOwed: the completion is owed and Next will deliver it.
	ShipOwed Shipped = iota
	// ShipDone: the operation has already executed — SHM-SERVER has one
	// request slot, the hybrid's delegated side serves its own request as
	// a combiner — and val is its result.
	ShipDone
	// ShipDeferred: nothing was shipped, acquired or registered. The
	// operation joins the pipeline's pending run, which the transport's
	// Run executes when a completion is demanded (a lock, HybComb or
	// CC-Synch client, the hybrid in lock mode).
	ShipDeferred
)

// runner is the one entry point of a transport whose Ship defers.
type runner interface {
	// Run executes the pending run reqs as ONE run and returns how many
	// of its requests it left owed instead: the first owed completions
	// come through Next, and rets[i] holds reqs[i]'s result for every
	// i >= owed. A lock executes all of it under one acquisition (owed
	// 0), CC-Synch publishes it as one chain cell and completes that
	// (owed 0); HybComb registers a prefix with an open round and
	// executes the rest as its own round's run. The pipeline calls it when a
	// completion is demanded and the transport owes nothing older.
	Run(reqs []Req, rets []uint64) (owed int)
}

// PipeSpec is what a construction's NewHandle assembles a handle from.
type PipeSpec struct {
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
	// Counters receives submit stalls and the deepest window reached;
	// Depth bounds the operations in flight (Options.QueueCap). Both
	// matter only to transports that leave completions owed.
	Counters *PipeCounters
	Depth    int
	// Waiter is the transport's own watched waiter, borrowed by
	// WaitTimeout's deadline loop so a wedged construction still trips
	// the stall watchdog under its own label.
	Waiter *backoff.Watched
}

// pipeHot is a Pipe's state; see Pipe for the padding.
type pipeHot struct {
	spec PipeSpec // Counters and Waiter never nil, Depth at least 1

	win     mpq.Window
	deepest uint64   // this handle's in-flight high-water mark
	done    []uint64 // Batch's done scratch: SubmitBatch, ApplyBatch(reqs, nil)

	// run is the window of a transport that defers. It comes last, so the
	// fields Apply reads stay on the lines they had.
	run deferredRun
}

// Pipe is the one Handle implementation: a ticket window over a
// construction's Transport and, where the transport defers, the one
// deferred run the window fills. See DESIGN.md "Handle pipeline". Handles
// of different threads are allocated side by side, and a pipelining
// thread writes its window on every operation, so the state is rounded
// up to whole cache lines like the transports'.
//
//hyblint:padded
type Pipe struct {
	pipeHot
	_ [pad.CacheLine - unsafe.Sizeof(pipeHot{})%pad.CacheLine]byte
}

var _ Handle = (*Pipe)(nil)

// NewPipe builds the handle for one goroutine over spec.
func NewPipe(spec PipeSpec) *Pipe {
	if spec.Counters == nil {
		spec.Counters = new(PipeCounters)
	}
	if spec.Waiter == nil {
		spec.Waiter = new(backoff.Watched)
	}
	spec.Depth = max(spec.Depth, 1)
	p := &Pipe{pipeHot: pipeHot{spec: spec}}
	if r, ok := spec.Transport.(runner); ok {
		// The run never holds more than the window, so it is sized once
		// here and deferring into it never allocates.
		p.run = deferredRun{exec: r, pend: make([]Req, 0, spec.Depth), rets: make([]uint64, 0, spec.Depth)}
	}
	return p
}

// NewImmediatePipe builds the handle of a construction that cannot
// leave a completion owed (SHM-SERVER's single request slot, an
// adapted bare function): every submission runs apply on the spot and
// banks the result, and a batch is a loop of them.
func NewImmediatePipe(apply func(op, arg uint64) uint64, latch *PoisonLatch, rec *telemetry.Recorder) *Pipe {
	return NewPipe(PipeSpec{Transport: immediate{apply}, Apply: apply, Latch: latch, Rec: rec})
}

// SyncHandle adapts a bare apply function into a full Handle with
// immediate completion — the escape hatch for application-registered
// executors whose transport has no natural submit/complete split. The
// returned handle is per-goroutine like every other. An adapted
// function has no servicing path of its own and therefore no poison
// latch; the adapting application owns its fault handling.
func SyncHandle(apply func(op, arg uint64) uint64) Handle {
	return NewImmediatePipe(apply, nil, nil)
}

type immediate struct {
	apply func(op, arg uint64) uint64
}

func (t immediate) Ship(op, arg uint64) (uint64, Shipped) { return t.apply(op, arg), ShipDone }

func (t immediate) Next(bool) (uint64, bool) { panic(NeverOwed) }

// NeverOwed is the panic of a Next nobody should call: the transport
// completes on the spot, or defers into the pipeline's run.
const NeverOwed = "core: transport asked for a completion it never owed"

func (t immediate) Batch(_ *Pipe, reqs []Req, done []uint64) int {
	for i, r := range reqs {
		done[i] = t.apply(r.Op, r.Arg)
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
		r.head = r.exec.Run(reqs, rets)
	}
	if p.win.InFlight() == r.holds() {
		p.win.Arrive(r.next())
		return true
	}
	v, ok := p.spec.Transport.Next(block)
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
		p.spec.Counters.stalls.Add(1)
		if p.spec.Latch != nil {
			p.spec.Latch.Tel.NoteSubmitStall()
		}
		p.settle(true)
	}
}

// issue opens the window slot of an operation just shipped, publishing
// the in-flight depth only when this handle reaches a new personal
// maximum — a handful of shared-line touches per handle lifetime.
func (p *Pipe) issue() uint64 {
	seq := p.win.Issue()
	if d := uint64(p.win.InFlight()); d > p.deepest {
		p.deepest = d
		p.spec.Counters.bumpDepth(d)
	}
	return seq
}

// ship sends one operation down the transport and returns its ticket
// number; a discarded operation that completed on the spot needs none.
func (p *Pipe) ship(op, arg uint64, discard bool) uint64 {
	p.makeRoom()
	val, how := p.spec.Transport.Ship(op, arg)
	switch how {
	case ShipDone:
		if discard {
			return 0
		}
		return p.win.IssueDone(val)
	case ShipDeferred:
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

// SubmitBatch implements Handle: the transport's batch strategy with
// nothing waited for. Whatever it ticketed sits in the window already;
// the run it executed on the spot is banked behind that, so the batch
// holds consecutive tickets from the window's next sequence number on.
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
// then SubmitBatch's one transport call and a wait for the ticketed
// prefix, under one latency sample. The run the transport executed on
// the spot is written straight into results and never sees a ticket.
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

// batch is SubmitBatch's and ApplyBatch's one transport call. Behind a
// run still owed, every request joins the pending run and takes the
// handle's next window slot, so the batch executes with — and after —
// what it queued behind; otherwise the transport ships it its own way.
func (p *Pipe) batch(reqs []Req, done []uint64) (ticketed int) {
	if p.run.holds() == 0 {
		return p.spec.Transport.Batch(p, reqs, done)
	}
	for _, q := range reqs {
		p.makeRoom()
		p.run.add(q.Op, q.Arg)
		p.issue()
	}
	return len(reqs)
}

// ShipAll is the batch strategy of a request-per-message transport:
// ship the whole batch back to back — it lands contiguously on the
// request path, so the servicing side sees it as part of one run — and
// ticket every request, so collecting the results costs one round-trip
// wait for the batch instead of one per operation. A batch longer than
// the in-flight bound settles its own oldest requests as it goes.
func (p *Pipe) ShipAll(reqs []Req) (ticketed int) {
	for _, r := range reqs {
		p.ship(r.Op, r.Arg, false)
	}
	return len(reqs)
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

// PipeCounters is the shared implementation of PipelineStats, embedded
// by the pipelining executors (MPServer, HybComb here; CC-Synch in
// internal/shmsync; LockExecutor keeps one per handle beside its retry
// counters) and fed by their handles' Pipes. Stalls are counted
// directly — a stall already pays a blocking receive or a combining
// round, so one more atomic add is noise — while depth is published
// only on a handle's new personal maximum (see Pipe.issue).
type PipeCounters struct {
	stalls atomic.Uint64
	depth  atomic.Uint64
}

// bumpDepth raises the published maximum in-flight depth to d
// (monotonic CAS max).
func (p *PipeCounters) bumpDepth(d uint64) {
	for {
		cur := p.depth.Load()
		if d <= cur || p.depth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Pipeline implements PipelineStats.
func (p *PipeCounters) Pipeline() (submitStalls, maxDepth uint64) {
	return p.stalls.Load(), p.depth.Load()
}
