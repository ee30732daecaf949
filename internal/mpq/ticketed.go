package mpq

import (
	"time"

	"hybsync/internal/backoff"
)

// Ticketed adapts the consumer side of a Queue into a ticketed
// completion stream, the receive half of an asynchronous submission
// pipeline: the submitter reserves stream positions with Issue (one per
// request whose response will arrive on q, in submission order) and
// later collects each response with WaitFor. Because the underlying
// queue is FIFO, position n is simply the n'th message ever received;
// WaitFor buffers messages it pulls while looking for an earlier
// position, so positions may be awaited out of order.
//
// Ticketed is bookkeeping for the queue's single consumer and inherits
// its concurrency contract: every method except Issue touches consumer
// state, and exactly one goroutine may drive the adapter at a time.
type Ticketed struct {
	q      Queue
	issued uint64 // stream positions reserved by Issue
	recvd  uint64 // messages pulled off q so far
	// ahead holds messages pulled past a position the consumer has not
	// asked for yet; skip marks positions whose message is discarded on
	// arrival (fire-and-forget requests). Both are nil until first used.
	ahead map[uint64]Msg
	skip  map[uint64]bool

	// wb is the watched waiter behind every blocking receive,
	// configured by Arm (zero stall leaves the watchdog disabled). It
	// lives on the adapter — constructed once, Reset per wait loop — so
	// the per-operation receive path never zeroes the watchdog state.
	wb backoff.Watched
}

// NewTicketed wraps the consumer side of q.
func NewTicketed(q Queue) *Ticketed { return &Ticketed{q: q} }

// Arm configures the stall watchdog on the adapter's blocking receives
// (WaitFor, Absorb, Flush): a receive that makes no progress for stall
// reports once through internal/backoff's stall handler, labelled with
// label. Call it before the first receive; stall 0 disables.
func (t *Ticketed) Arm(stall time.Duration, label string) {
	t.wb = backoff.Armed(stall, label)
}

// OnStall attaches f as the armed watchdog's firing observer (see
// backoff.Watched.SetOnStall); telemetry counts stall reports this
// way. Call it after Arm — Arm replaces the watcher wholesale.
func (t *Ticketed) OnStall(f func()) { t.wb.SetOnStall(f) }

// Issue reserves the next stream position, to be called once per
// submitted request immediately around its send. The n'th Issue returns
// n-1: positions count from zero in submission order.
func (t *Ticketed) Issue() uint64 {
	n := t.issued
	t.issued++
	return n
}

// Discard marks a reserved, not-yet-received position as
// fire-and-forget: its message is dropped when it arrives instead of
// being buffered for a WaitFor that will never come. Call it before any
// receive that could pull the position in.
func (t *Ticketed) Discard(pos uint64) {
	if t.skip == nil {
		t.skip = make(map[uint64]bool)
	}
	t.skip[pos] = true
}

// InFlight returns how many reserved positions have not yet been pulled
// off the queue — the number of responses that are pending or sitting
// unreceived in the queue. Submitters bound it by the queue's capacity
// (calling Absorb when full) so a responder can never block on a full
// response queue.
func (t *Ticketed) InFlight() int { return int(t.issued - t.recvd) }

// pull blocks for the next message and returns it with its position,
// dropping it instead when the position was discarded (ok=false).
// With the stall watchdog armed the blocking loop is driven here
// rather than by q.Recv, so the watchdog can observe a response that
// never comes; disarmed, the queue's own (cheaper) blocking receive
// does the waiting.
func (t *Ticketed) pull() (pos uint64, m Msg, ok bool) {
	m, got := t.q.TryRecv()
	if !got {
		if !t.wb.Active() {
			m = t.q.Recv()
		} else {
			t.wb.Reset()
			for {
				t.wb.Wait()
				if m, got = t.q.TryRecv(); got {
					break
				}
			}
		}
	}
	return t.book(m)
}

// tryPull is pull without the blocking: pulled is false when nothing
// is currently receivable.
func (t *Ticketed) tryPull() (pos uint64, m Msg, ok, pulled bool) {
	m, got := t.q.TryRecv()
	if !got {
		return 0, Msg{}, false, false
	}
	pos, m, ok = t.book(m)
	return pos, m, ok, true
}

// book assigns the next stream position to a pulled message, dropping
// discarded positions (ok=false).
func (t *Ticketed) book(m Msg) (pos uint64, _ Msg, ok bool) {
	pos = t.recvd
	t.recvd++
	if len(t.skip) > 0 && t.skip[pos] {
		delete(t.skip, pos)
		return pos, Msg{}, false
	}
	return pos, m, true
}

// WaitFor returns the message at stream position pos, blocking until it
// arrives. Messages pulled while skipping ahead to pos are buffered for
// their own WaitFor. Each position may be awaited at most once; asking
// again for a delivered position panics, since the message is gone.
func (t *Ticketed) WaitFor(pos uint64) Msg {
	if len(t.ahead) > 0 {
		if m, ok := t.ahead[pos]; ok {
			delete(t.ahead, pos)
			return m
		}
	}
	if pos < t.recvd {
		panic("mpq: WaitFor on an already-delivered stream position")
	}
	for {
		p, m, ok := t.pull()
		if !ok {
			continue
		}
		if p == pos {
			return m
		}
		if t.ahead == nil {
			t.ahead = make(map[uint64]Msg)
		}
		t.ahead[p] = m
	}
}

// TryWaitFor is WaitFor without the blocking: it returns pos's message
// if it is already buffered or can be pulled without waiting, and
// (Msg{}, false) otherwise — the position stays awaitable. Messages
// pulled while draining toward pos are buffered exactly as in WaitFor.
// Asking for an already-delivered position panics, like WaitFor.
func (t *Ticketed) TryWaitFor(pos uint64) (Msg, bool) {
	if len(t.ahead) > 0 {
		if m, ok := t.ahead[pos]; ok {
			delete(t.ahead, pos)
			return m, true
		}
	}
	if pos < t.recvd {
		panic("mpq: WaitFor on an already-delivered stream position")
	}
	for {
		p, m, ok, pulled := t.tryPull()
		if !pulled {
			return Msg{}, false
		}
		if !ok {
			continue
		}
		if p == pos {
			return m, true
		}
		if t.ahead == nil {
			t.ahead = make(map[uint64]Msg)
		}
		t.ahead[p] = m
	}
}

// WaitForTimeout is WaitFor bounded by d: ok is false when the
// position's message did not arrive in time — the position stays
// awaitable (retry, or fall back to WaitFor).
func (t *Ticketed) WaitForTimeout(pos uint64, d time.Duration) (Msg, bool) {
	if m, ok := t.TryWaitFor(pos); ok {
		return m, true
	}
	deadline := time.Now().Add(d)
	t.wb.Reset()
	for {
		t.wb.Wait()
		if m, ok := t.TryWaitFor(pos); ok {
			return m, true
		}
		if !time.Now().Before(deadline) {
			return Msg{}, false
		}
	}
}

// Absorb blocks for one message and moves it into the buffer (or drops
// it, if discarded), freeing one slot of queue capacity without
// deciding yet which position the consumer wants next.
func (t *Ticketed) Absorb() {
	p, m, ok := t.pull()
	if !ok {
		return
	}
	if t.ahead == nil {
		t.ahead = make(map[uint64]Msg)
	}
	t.ahead[p] = m
}

// Flush absorbs every outstanding message: after it returns nothing is
// in flight, discarded positions are dropped, and every other
// undelivered position is buffered for its WaitFor.
func (t *Ticketed) Flush() {
	for t.recvd < t.issued {
		t.Absorb()
	}
}
