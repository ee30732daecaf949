// Package mpq provides bounded FIFO message queues with the semantics of
// the TILE-Gx User Dynamic Network the paper builds on (§2, §5.1): each
// thread owns an incoming queue; sends are possible from any thread and
// block only when the destination queue is full (back-pressure — messages
// are never dropped); receives block until a message is available; the
// words of one message arrive contiguously and messages from one sender
// stay in order.
//
// Substitution note (DESIGN.md): hardware delivers raw 64-bit words and
// receive(k) pops k of them; in native Go the queue is message-granular —
// a Msg carries up to three words, matching the request {id, opcode, arg}
// and response {value} frames the paper's algorithms exchange. This
// preserves every property the algorithms rely on (FIFO, bounded,
// blocking, contiguous) while staying allocation-free.
//
// Every queue in the system is consumed by exactly one goroutine (each
// thread owns its incoming queue), so the package provides
// role-specialized backends and no multi-consumer one:
//
//   - Spsc: single producer, single consumer — the MP-SERVER response
//     path. No atomic read-modify-write at all; the producer's position
//     is a private plain word.
//   - Mpsc: many producers, single consumer — the MP-SERVER request
//     queue and the HybComb inboxes. Producers claim a slot with a
//     single fetch-and-add instead of a CAS retry loop; the consumer
//     never CASes.
//
// Both rings speak one stamped-cell protocol (see ring): a message is
// one cache line the producer writes and the consumer reads, and
// nothing else crosses cores per message.
//
// A buffered Go channel — the obvious baseline — lives in the package's
// tests as the reference backend: the contract tests run every case
// against it too, and BenchmarkMPQBackends and BenchmarkRingRoundTrip
// compare the rings with it per role.
package mpq

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// Msg is one hardware-style message: N words of payload (1..3).
type Msg struct {
	N int
	W [3]uint64
}

// Word builds a 1-word message.
func Word(v uint64) Msg { return Msg{N: 1, W: [3]uint64{v}} }

// Words3 builds a 3-word message (the request frame {id, op, arg}).
func Words3(a, b, c uint64) Msg { return Msg{N: 3, W: [3]uint64{a, b, c}} }

// Queue is a bounded FIFO with blocking Send/Recv, non-blocking TryRecv
// (the paper's is_queue_empty + receive idiom), and batched receive for
// amortizing per-message synchronization on the consumer side.
type Queue interface {
	// Send enqueues m, blocking while the queue is full (back-pressure).
	Send(m Msg)
	// Recv dequeues the oldest message, blocking while the queue is empty.
	Recv() Msg
	// TryRecv dequeues if a published message is available.
	TryRecv() (Msg, bool)
	// RecvBatch dequeues up to len(buf) messages into buf, blocking
	// until at least one is available, and returns the count. Messages
	// from one sender stay in order across batch boundaries. A zero-
	// length buf returns 0 immediately.
	RecvBatch(buf []Msg) int
	// TryRecvBatch dequeues up to len(buf) currently published messages
	// into buf without blocking and returns the count (0 when empty).
	TryRecvBatch(buf []Msg) int
	// Empty reports whether the queue currently has no published
	// message at its head. Like the hardware instruction it is advisory
	// in two ways: a concurrent sender may enqueue immediately after,
	// and a sender mid-publication (slot claimed, message not yet
	// written) still counts as empty until the write completes.
	Empty() bool
}

// recvBatchBlocking implements RecvBatch over a backend's blocking Recv
// and non-blocking TryRecvBatch: block for the first message, then
// opportunistically drain whatever else is already published.
func recvBatchBlocking(q interface {
	Recv() Msg
	TryRecvBatch([]Msg) int
}, buf []Msg) int {
	if len(buf) == 0 {
		return 0
	}
	buf[0] = q.Recv()
	return 1 + q.TryRecvBatch(buf[1:])
}

// ringCellHot is the live part of a ring cell; the enclosing ringCell
// pads it to a whole cache line (verified by TestLayout) so neighbouring
// cells never false-share.
type ringCellHot struct {
	seq atomic.Uint64
	msg Msg
}

//hyblint:padded
type ringCell struct {
	ringCellHot
	_ [pad.CacheLine - unsafe.Sizeof(ringCellHot{})%pad.CacheLine]byte
}

// ringSize is the number of cells behind a ring of capacity cap: cap
// rounded up to a power of two, minimum 2.
func ringSize(cap int) int {
	n := 2
	for n < cap {
		n <<= 1
	}
	return n
}

// ring is what Spsc and Mpsc share: the stamped cells and the whole
// consumer half of the protocol. The two rings differ only in how a
// producer claims a position and learns that its cell is free.
//
// The message at position pos lives in cells[pos&mask] and is published
// by stamping that cell's seq with pos+1 — a value no other lap of the
// cell ever carries, so a stale stamp (lap L-1) can never pass for the
// one the consumer expects (lap L), and a position that is claimed but
// not yet written reads as empty. The consumer polls the stamp of the
// one cell it expects next, copies the message out and advances deq; it
// never writes a cell. A cell is therefore free for reuse as soon as deq
// has passed its previous lap, and producers learn how far deq has come
// from deq itself — through a private or shared snapshot they refresh
// only when the ring looks full — not from the cell. Per message
// exactly one line crosses cores: the cell, written by the producer and
// read by the consumer.
//
// The ring holds at most bound messages: position pos may be written
// once deq > pos-bound. bound is the capacity the caller asked for, not
// the power of two the cells are rounded up to, so both rings (and the
// tests' channel reference) exert the same back-pressure — and so the
// snapshot refresh, which costs the one send in every bound a miss on
// the consumer's line, does not recur with a power-of-two period that
// a 1-in-16 or 1-in-64 latency sampler would lock onto.
//
// Exactly one goroutine may call the receive methods over the ring's
// lifetime; Empty is safe from anywhere but advisory.
//
//hyblint:padsep
type ring struct {
	_ pad.Line
	// deq is written only by the consumer; producers read it only when
	// the ring looks full.
	deq atomic.Uint64
	_   pad.Line
	// Read-only after construction.
	mask  uint64
	bound uint64
	cells []ringCell
}

func (r *ring) init(cap int) {
	n := ringSize(cap)
	r.mask, r.bound, r.cells = uint64(n-1), uint64(max(cap, 2)), make([]ringCell, n)
}

// Recv implements Queue. Consumer-side only.
func (r *ring) Recv() Msg {
	var b backoff.Backoff
	for {
		if m, ok := r.TryRecv(); ok {
			return m
		}
		b.Wait()
	}
}

// TryRecv implements Queue. Consumer-side only. It returns false both
// when the ring is empty and when the head cell is claimed by a
// producer that has not yet stamped it: an unpublished message is not
// receivable, exactly as an in-flight hardware packet is not.
func (r *ring) TryRecv() (Msg, bool) {
	pos := r.deq.Load() // own field
	cell := &r.cells[pos&r.mask]
	if cell.seq.Load() != pos+1 {
		return Msg{}, false
	}
	m := cell.msg
	r.deq.Store(pos + 1) // frees the cell: release-orders the read above
	return m, true
}

// RecvBatch implements Queue. Consumer-side only.
func (r *ring) RecvBatch(buf []Msg) int { return recvBatchBlocking(r, buf) }

// TryRecvBatch implements Queue. Consumer-side only: it walks the run
// of already-published cells and advances deq once at the end, so the
// producer-visible synchronization cost is one store per batch.
func (r *ring) TryRecvBatch(buf []Msg) int {
	pos := r.deq.Load()
	n := 0
	for n < len(buf) {
		cell := &r.cells[pos&r.mask]
		if cell.seq.Load() != pos+1 {
			break
		}
		buf[n] = cell.msg
		n++
		pos++
	}
	if n > 0 {
		r.deq.Store(pos)
	}
	return n
}

// Empty implements Queue. Advisory; a stamp other than pos+1 covers
// both genuinely empty and "head cell claimed but not yet written".
func (r *ring) Empty() bool {
	pos := r.deq.Load()
	return r.cells[pos&r.mask].seq.Load() != pos+1
}
