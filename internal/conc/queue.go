package conc

import (
	"sync/atomic"

	"hybsync/internal/core"
)

// qnode is a linked-list cell shared by the queue implementations.
type qnode struct {
	value uint64
	next  *qnode
}

// MSQueue1 is the one-lock Michael & Scott queue of Figure 5a: a
// sequential linked-list queue (with dummy node) whose enqueue and
// dequeue both run as critical sections of one executor. The paper finds
// this simple structure, over MP-SERVER or HYBCOMB, to be the fastest
// queue on the TILE-Gx.
type MSQueue1 struct {
	exec core.Executor
	head *qnode
	tail *qnode
}

// queue1Object is the one-lock queue's native batch object: a run of
// mixed enqueues/dequeues walks the list with the head and tail held
// locally, linking and unlinking without a dispatch indirection per
// operation.
type queue1Object struct{ q *MSQueue1 }

func (o queue1Object) DispatchBatch(reqs []core.Req, results []uint64) {
	q := o.q
	for i, r := range reqs {
		switch r.Op {
		case OpEnq:
			n := &qnode{value: r.Arg}
			q.tail.next = n
			q.tail = n
			results[i] = 0
		case OpDeq:
			next := q.head.next
			if next == nil {
				results[i] = EmptyVal
				continue
			}
			q.head = next
			results[i] = next.value
		default:
			panic("conc: bad queue opcode")
		}
	}
}

// NewMSQueue1 builds the queue over the given construction.
func NewMSQueue1(f ExecutorFactory) (*MSQueue1, error) {
	q := &MSQueue1{}
	dummy := &qnode{}
	q.head, q.tail = dummy, dummy
	exec, err := f(queue1Object{q: q})
	if err != nil {
		return nil, err
	}
	q.exec = exec
	return q, nil
}

// NewHandle returns a per-goroutine handle.
func (q *MSQueue1) NewHandle() (*QueueHandle, error) {
	h, err := q.exec.NewHandle()
	if err != nil {
		return nil, err
	}
	return &QueueHandle{enq: h, deq: h}, nil
}

// Close shuts down the underlying executor; idempotent.
func (q *MSQueue1) Close() error { return q.exec.Close() }

// Err reports the underlying executor's terminal fault (a *PoisonError
// wrapping core.ErrPoisoned), or nil while it is healthy. On a poisoned
// queue Dequeue returns 0 — which a stored 0 also is — so a caller that
// must tell the two apart asks here.
func (q *MSQueue1) Err() error { return q.exec.Err() }

// Stats reports the underlying executor's combining statistics when it
// is a combining construction; ok is false otherwise. Call only while
// no operations are in flight.
func (q *MSQueue1) Stats() (rounds, combined uint64, ok bool) { return execStats(q.exec) }

// MSQueue2 is the two-lock Michael & Scott queue: enqueues and dequeues
// are protected by two independent executors, so they can run in
// parallel. The dummy-node representation keeps the two sides
// structurally disjoint; the next pointer is atomic because the dequeue
// side reads it while the enqueue side links new nodes.
type MSQueue2 struct {
	enqExec core.Executor
	deqExec core.Executor
	head    *aqnode
	tail    *aqnode
}

// aqnode is qnode with an atomic next, required when the two sides of
// the queue run concurrently.
type aqnode struct {
	value uint64
	next  atomic.Pointer[aqnode]
}

// enqObject and deqObject are the two-lock queue's native batch
// objects, one per side; each side's run executes under its own
// executor's mutual exclusion.
type enqObject struct{ q *MSQueue2 }

func (o enqObject) DispatchBatch(reqs []core.Req, results []uint64) {
	q := o.q
	for i, r := range reqs {
		n := &aqnode{value: r.Arg}
		q.tail.next.Store(n)
		q.tail = n
		results[i] = 0
	}
}

type deqObject struct{ q *MSQueue2 }

func (o deqObject) DispatchBatch(reqs []core.Req, results []uint64) {
	q := o.q
	for i := range reqs {
		next := q.head.next.Load()
		if next == nil {
			results[i] = EmptyVal
			continue
		}
		q.head = next
		results[i] = next.value
	}
}

// NewMSQueue2 builds the queue over two executors (for MP-SERVER this
// means two dedicated server goroutines, the cost §5.4 discusses).
func NewMSQueue2(f ExecutorFactory) (*MSQueue2, error) {
	q := &MSQueue2{}
	dummy := &aqnode{}
	q.head, q.tail = dummy, dummy
	enq, err := f(enqObject{q: q})
	if err != nil {
		return nil, err
	}
	deq, err := f(deqObject{q: q})
	if err != nil {
		enq.Close()
		return nil, err
	}
	q.enqExec, q.deqExec = enq, deq
	return q, nil
}

// NewHandle returns a per-goroutine handle.
func (q *MSQueue2) NewHandle() (*QueueHandle, error) {
	enq, err := q.enqExec.NewHandle()
	if err != nil {
		return nil, err
	}
	deq, err := q.deqExec.NewHandle()
	if err != nil {
		return nil, err
	}
	return &QueueHandle{enq: enq, deq: deq}, nil
}

// Close shuts down both underlying executors; idempotent.
func (q *MSQueue2) Close() error {
	err := q.enqExec.Close()
	if err2 := q.deqExec.Close(); err == nil {
		err = err2
	}
	return err
}

// Err reports the first poisoned side's terminal fault (enqueue side
// first), or nil while both executors are healthy; see MSQueue1.Err.
func (q *MSQueue2) Err() error {
	if err := q.enqExec.Err(); err != nil {
		return err
	}
	return q.deqExec.Err()
}

// QueueHandle is a goroutine's capability to use a queue.
type QueueHandle struct {
	enq core.Handle
	deq core.Handle
}

// Enqueue appends v.
func (h *QueueHandle) Enqueue(v uint64) { h.enq.Apply(OpEnq, v) }

// Dequeue removes the oldest value, or returns EmptyVal when empty.
func (h *QueueHandle) Dequeue() uint64 { return h.deq.Apply(OpDeq, 0) }
