package core

// Req is one operation of a batch: the §5.2 opcode plus its single
// 64-bit argument — exactly the payload of a request message, minus the
// sender identity the transport adds.
type Req struct {
	Op  uint64
	Arg uint64
}

// Object is the batch-aware execution contract: the protected object a
// construction executes critical sections against. DispatchBatch
// executes reqs[0..n) in order, in one mutual-exclusion call, filling
// results[i] with reqs[i]'s result. The constructions guarantee
// len(results) == len(reqs) and that the two slices do not overlap;
// the object may read reqs and write results only until DispatchBatch
// returns and must not retain either slice (constructions reuse both
// buffers for the next run). Every uint64 opcode and argument belongs
// to the object: no construction reserves one for itself.
//
// A DispatchBatch call owns the object exactly like a critical section
// under a lock: the whole run executes under the construction's mutual
// exclusion, so the object may touch shared state without further
// synchronization — and may exploit the run, e.g. a counter can apply
// a run of increments against one locally-held value instead of
// re-reading shared state per operation.
//
// How runs form is up to each construction (see DESIGN.md "Batch-aware
// dispatch"): MP-SERVER hands over each drained receive batch, HYBCOMB
// each combining round's collected requests, CC-SYNCH each combined
// chain segment, SHM-SERVER each run of consecutive occupied client
// slots, and the lock executors each ApplyBatch issued under one lock
// acquisition. A batch of one is always legal — the scalar Apply path
// arrives as a 1-request batch.
type Object interface {
	DispatchBatch(reqs []Req, results []uint64)
}

// Func adapts a bare function — one operation per call, always invoked
// in mutual exclusion, so it may touch shared state without further
// synchronization — into an Object that executes a batch by looping:
// NewObject(name, Func(f)). The conversion is free.
type Func func(op, arg uint64) uint64

// DispatchBatch implements Object by applying the function once per
// request.
func (f Func) DispatchBatch(reqs []Req, results []uint64) {
	for i, r := range reqs {
		results[i] = f(r.Op, r.Arg)
	}
}
