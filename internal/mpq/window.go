package mpq

import "hybsync/internal/backoff"

// Window is the ticket window of one submission pipeline: a slot per
// issued ticket, in a growable deque indexed by the ticket's sequence
// number. It is the one place ticket state lives — the handle pipeline
// in internal/core drives one per handle, and Ticketed and
// core.Immediate are thin views of it.
//
// A slot is born pending (Issue: the operation was shipped and its
// completion will arrive later) or born complete (IssueDone: the
// operation executed on the spot). Completions of pending slots arrive
// in issue order — the transports underneath are FIFO — so Arrive
// needs no ticket: it always settles the oldest pending slot, banking
// the value for the slot's Take or dropping it if the slot was marked
// Discard (fire-and-forget). Take redeems a ticket at most once; a
// redeemed slot is retired, and the deque's head advances past retired
// slots, so a pipeline that waits in roughly issue order stays a few
// slots long however many tickets pass through it, while one that
// holds banked results back (waiting newest-first across more than the
// in-flight bound) simply grows.
//
// The zero value is ready to use. A Window is bookkeeping for one
// goroutine and is not safe for concurrent use.
type Window struct {
	slots    []slot // ring: sequence number seq lives in slots[seq&mask]
	mask     uint64 // len(slots)-1; len is zero or a power of two
	base     uint64 // oldest sequence number not yet retired
	next     uint64 // next sequence number to issue
	arrive   uint64 // no pending slot lies below this sequence number
	inFlight int    // pending slots (discarded ones included)
}

type slot struct {
	val   uint64
	state slotState
}

type slotState uint8

const (
	slotRetired slotState = iota // redeemed, or discarded and arrived
	slotDone                     // value banked for Take
	slotPending                  // shipped, completion not yet arrived
	slotDiscard                  // pending, value dropped on arrival
)

// Status is Take's verdict on a ticket.
type Status uint8

const (
	// Ready: the ticket was redeemed; the value is its result.
	Ready Status = iota
	// NotReady: the ticket is outstanding but its completion has not
	// arrived yet; it stays redeemable.
	NotReady
	// Invalid: the ticket is not outstanding — already redeemed,
	// discarded, or never issued by this window.
	Invalid
)

// Issue opens a pending slot for an operation just shipped and returns
// its sequence number. Sequence numbers count from zero in issue order.
func (w *Window) Issue() uint64 {
	w.inFlight++
	return w.push(slot{state: slotPending})
}

// IssueDone opens a slot for an operation that already executed,
// banking val for its Take.
func (w *Window) IssueDone(val uint64) uint64 {
	return w.push(slot{val: val, state: slotDone})
}

func (w *Window) push(s slot) uint64 {
	if w.next-w.base == uint64(len(w.slots)) {
		w.grow()
	}
	seq := w.next
	w.slots[seq&w.mask] = s
	w.next = seq + 1
	return seq
}

// grow doubles the ring, keeping every live slot at its sequence
// number's new index.
func (w *Window) grow() {
	bigger := make([]slot, max(2*len(w.slots), 8))
	mask := uint64(len(bigger) - 1)
	for seq := w.base; seq != w.next; seq++ {
		bigger[seq&mask] = w.slots[seq&w.mask]
	}
	w.slots, w.mask = bigger, mask
}

// Discard marks the pending slot seq fire-and-forget: its value is
// dropped on arrival instead of banked for a Take that will never come.
// Only a slot still pending can be discarded.
func (w *Window) Discard(seq uint64) {
	if seq-w.base >= w.next-w.base || w.slots[seq&w.mask].state != slotPending {
		panic("mpq: Discard on a slot that is not pending")
	}
	w.slots[seq&w.mask].state = slotDiscard
}

// Next returns the sequence number the next Issue or IssueDone will
// take: a run of issues takes consecutive numbers from here.
func (w *Window) Next() uint64 { return w.next }

// InFlight returns how many issued operations have not completed yet.
// Pipelines bound it (settling the oldest with Arrive when full) so a
// responder can never block on a full completion queue.
func (w *Window) InFlight() int { return w.inFlight }

// Arrive delivers the next completion: val is the result of the oldest
// pending slot. It panics when nothing is in flight — a completion
// nobody shipped is a transport bug.
func (w *Window) Arrive(val uint64) {
	if w.inFlight == 0 {
		panic("mpq: completion arrived with nothing in flight")
	}
	seq := max(w.arrive, w.base)
	for w.slots[seq&w.mask].state < slotPending { // born complete, maybe redeemed since
		seq++
	}
	s := &w.slots[seq&w.mask]
	if s.state == slotPending {
		*s = slot{val: val, state: slotDone}
	} else {
		s.state = slotRetired
		w.trim()
	}
	w.arrive = seq + 1
	w.inFlight--
}

// Take redeems ticket seq: Ready with the banked value (the slot is
// retired), NotReady while the slot is still pending, Invalid for a
// ticket that is not outstanding.
func (w *Window) Take(seq uint64) (uint64, Status) {
	if seq-w.base >= w.next-w.base { // below base wraps around to huge
		return 0, Invalid
	}
	s := &w.slots[seq&w.mask]
	switch s.state {
	case slotDone:
		s.state = slotRetired
		w.trim()
		return s.val, Ready
	case slotPending:
		return 0, NotReady
	}
	return 0, Invalid
}

// trim advances the head past retired slots.
func (w *Window) trim() {
	for w.base != w.next && w.slots[w.base&w.mask].state == slotRetired {
		w.base++
	}
}

// RecvWord receives the next message of q, a one-word completion, the
// way a pipeline's transport needs it: without block it returns
// ok=false rather than wait; with block it waits under w's stall
// watchdog — with w armed the blocking loop is driven here, so the
// watchdog can observe a message that never comes; disarmed, the
// queue's own (cheaper) blocking receive does the waiting.
func RecvWord(q Queue, w *backoff.Watched, block bool) (val uint64, ok bool) {
	m, ok := q.TryRecv()
	switch {
	case ok:
	case !block:
		return 0, false
	case !w.Active():
		m = q.Recv()
	default:
		w.Reset()
		for !ok {
			w.Wait()
			m, ok = q.TryRecv()
		}
	}
	return m.W[0], true
}

// Ticketed numbers the messages of a FIFO queue as a completion stream:
// the submitter reserves stream positions with Issue (one per request
// whose one-word response will arrive on q, in submission order) and
// collects each response with WaitFor, in any order. It is a Window fed
// from a queue — the smallest complete pipeline, which the layer probes
// (mpq.ticketed_*) time on its own; the constructions' handles drive
// their Window through internal/core instead. Like the queue's consumer
// side, it belongs to one goroutine.
type Ticketed struct {
	q   Queue
	win Window
}

// NewTicketed wraps the consumer side of q.
func NewTicketed(q Queue) *Ticketed { return &Ticketed{q: q} }

// Issue reserves the next stream position, to be called once per
// submitted request immediately around its send. The n'th Issue returns
// n-1: positions count from zero in submission order.
func (t *Ticketed) Issue() uint64 { return t.win.Issue() }

// Discard marks a reserved, not-yet-received position fire-and-forget:
// its message is dropped when it arrives. Call it before any receive
// that could pull the position in.
func (t *Ticketed) Discard(pos uint64) { t.win.Discard(pos) }

// InFlight returns how many reserved positions have not yet been pulled
// off the queue.
func (t *Ticketed) InFlight() int { return t.win.InFlight() }

// Absorb blocks for one message and banks it at its position (or drops
// it, if discarded), freeing one slot of queue capacity without
// deciding yet which position the consumer wants next.
func (t *Ticketed) Absorb() { t.win.Arrive(t.q.Recv().W[0]) }

// Flush absorbs every outstanding message: after it returns nothing is
// in flight and every undelivered, undiscarded position is banked for
// its WaitFor.
func (t *Ticketed) Flush() {
	for t.win.InFlight() > 0 {
		t.Absorb()
	}
}

// WaitFor returns the response at stream position pos, blocking until
// it arrives; messages pulled on the way are banked for their own
// WaitFor. Each position may be awaited at most once: asking again, or
// for a position never reserved, panics.
func (t *Ticketed) WaitFor(pos uint64) Msg {
	for {
		switch v, st := t.win.Take(pos); st {
		case Ready:
			return Word(v)
		case Invalid:
			panic("mpq: WaitFor on a stream position that is not outstanding")
		}
		t.Absorb()
	}
}
