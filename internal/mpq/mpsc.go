package mpq

import (
	"sync/atomic"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// Mpsc is the many-producers/single-consumer fast path: the MP-SERVER
// request queue and the HybComb inboxes, where any thread may send but
// only the owning thread receives. Producers claim a position with a
// single fetch-and-add on enq — one atomic RMW per send, no retry loop —
// and publish by stamping the cell (see Ring). The single consumer
// never performs an RMW and never writes a cell.
//
// Back-pressure: position pos may be written once deq > pos-bound.
// Producers test that against deqSeen, a conservative snapshot of deq
// that lives on their own enq line — the line the fetch-and-add already
// owns — so a send into a ring with room reads nothing the consumer
// writes. Only a producer that finds the ring apparently full reads deq
// itself, waits there while the ring really is full, and raises deqSeen
// for everyone. Claims are honored in position order, so a parked
// producer cannot deadlock: the consumer drains every position before
// its own. Send blocks while the queue is full and no message is ever
// dropped; one sender's claims are monotonic, so its messages stay in
// order.
//
// Exactly one goroutine may call Recv/TryRecv/RecvBatch/TryRecvBatch
// over the queue's lifetime; concurrent consumers are a data race by
// contract. Send is safe from any number of goroutines. Empty is safe
// from anywhere but advisory.
type Mpsc struct {
	_   pad.Line
	enq atomic.Uint64
	// deqSeen <= deq always: every value stored was read from deq. It
	// only rises; a lost raise leaves it lower, which is merely
	// conservative.
	deqSeen atomic.Uint64
	Ring
}

// NewMpsc creates a many-producers/single-consumer queue that holds cap
// messages (minimum 2).
func NewMpsc(cap int) *Mpsc {
	q := &Mpsc{}
	q.init(cap)
	return q
}

// Send implements Queue: one fetch-and-add claims the position, one
// store publishes it.
func (q *Mpsc) Send(m Msg) {
	pos := q.enq.Add(1) - 1
	if pos-q.deqSeen.Load() >= q.bound {
		q.awaitFree(pos)
	}
	cell := &q.cells[pos&q.mask]
	cell.msg = m
	cell.seq.Store(pos + 1)
}

// awaitFree parks the producer that claimed pos until the consumer has
// let it in (deq > pos-bound), then shares what it learned by
// raising deqSeen. The raise is a single CAS from a lower value: it can
// only move deqSeen up, and losing it to another producer's raise is
// harmless.
func (q *Mpsc) awaitFree(pos uint64) {
	var b backoff.Backoff
	for {
		deq := q.deq.Load()
		if pos-deq < q.bound {
			if seen := q.deqSeen.Load(); seen < deq {
				q.deqSeen.CompareAndSwap(seen, deq)
			}
			return
		}
		b.Wait() // full: back-pressure
	}
}
