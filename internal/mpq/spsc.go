package mpq

import (
	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// Spsc is the single-producer/single-consumer fast path: a bounded
// stamped-cell ring (see ring) with no atomic read-modify-write at all.
// The producer's position is a private plain word — nobody else ever
// reads it, because the consumer finds messages by their stamps — and
// fullness is judged against a private snapshot of deq, refreshed only
// when the ring looks full. An uncontended Send writes one shared line
// (the cell) and Recv reads that one line.
//
// This is the MP-SERVER response path (server → one blocked client) and
// mirrors the hardware UDN most closely: a dedicated point-to-point
// channel. Exactly one goroutine may call Send and exactly one may call
// Recv/TryRecv/RecvBatch/TryRecvBatch over the queue's lifetime;
// concurrent producers (or consumers) are a data race by contract.
// Empty is safe from anywhere but advisory.
//
//hyblint:padsep
type Spsc struct {
	_ pad.Line
	// Producer-private, never read by another goroutine: the next
	// position to write and a snapshot of deq.
	enq      uint64
	deqCache uint64
	ring
}

// NewSpsc creates a single-producer/single-consumer queue that holds cap
// messages (minimum 2).
func NewSpsc(cap int) *Spsc {
	q := &Spsc{}
	q.init(cap)
	return q
}

// Send implements Queue. Producer-side only.
func (q *Spsc) Send(m Msg) {
	pos := q.enq
	if pos-q.deqCache >= q.bound {
		var b backoff.Backoff
		for {
			q.deqCache = q.deq.Load()
			if pos-q.deqCache < q.bound {
				break
			}
			b.Wait() // full: back-pressure
		}
	}
	cell := &q.cells[pos&q.mask]
	cell.msg = m
	cell.seq.Store(pos + 1) // publish: release-orders the message write above
	q.enq = pos + 1
}
