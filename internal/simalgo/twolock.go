package simalgo

import "hybsync/internal/tilesim"

// TwoLockQueue is the two-lock Michael & Scott queue of Figure 5a:
// enqueues and dequeues are protected by two independent critical
// sections (the dummy-node representation of SeqQueue guarantees they
// never touch the same node concurrently... except head==tail handoff,
// which the dummy node also makes safe). Each side's CS is executed by
// its own Executor — with MP-SERVER this requires two dedicated server
// cores per queue instance, the cost the paper highlights (§5.4).
type TwoLockQueue struct {
	q       *SeqQueue
	enqSide Executor
	deqSide Executor
}

// NewTwoLockQueueMPServer builds the MP-SERVER-2 variant: two servers on
// cores 0 and 1, application threads from core 2 (the only two-lock
// variant the paper plots, as the others perform worse).
func NewTwoLockQueueMPServer(e *tilesim.Engine) *TwoLockQueue {
	q := NewSeqQueue(e)
	return &TwoLockQueue{
		q:       q,
		enqSide: NewMPServer(e, 0, twoLockSide{q: q, enq: true}),
		deqSide: NewMPServer(e, 1, twoLockSide{q: q, enq: false}),
	}
}

// twoLockSide adapts one side of the queue as an Object. The enqueue
// server only runs OpEnq CSes; the dequeue server only OpDeq. Both touch
// the shared linked list, so the two servers' caches exchange the node
// lines — the coherence traffic that makes fine-grained locking lose to
// the single-lock queue on this platform (§5.4).
type twoLockSide struct {
	q   *SeqQueue
	enq bool
}

func (s twoLockSide) Exec(p *tilesim.Proc, op, arg uint64) uint64 {
	// The two sides run in parallel on a relaxed memory model, so each
	// CS must fence on entry (acquire: observe the other side's
	// published nodes) and before exit (release: publish links before
	// the other side can traverse them). The one-lock variants need no
	// fences because a single servicing thread serializes everything —
	// exactly the §5.4 trade-off.
	p.Fence()
	var ret uint64
	if s.enq {
		s.q.Enqueue(p, arg)
	} else {
		ret = s.q.Dequeue(p)
	}
	p.Fence()
	return ret
}

// Handle implements Executor by routing enqueues to the enqueue side and
// dequeues to the dequeue side.
func (t *TwoLockQueue) Handle(p *tilesim.Proc) Handle {
	return &twoLockHandle{enq: t.enqSide.Handle(p), deq: t.deqSide.Handle(p)}
}

type twoLockHandle struct {
	enq Handle
	deq Handle
}

func (h *twoLockHandle) Apply(op, arg uint64) uint64 {
	switch op {
	case OpEnq:
		return h.enq.Apply(op, arg)
	case OpDeq:
		return h.deq.Apply(op, arg)
	default:
		panic("simalgo: bad two-lock opcode")
	}
}
