// Package simalgo implements the paper's synchronization algorithms —
// MP-SERVER, HYBCOMB, CC-SYNCH and SHM-SERVER — as programs for the
// tilesim simulated chip, together with the concurrent objects used in
// the evaluation (counter, Michael-Scott queues, LCRQ, Treiber stack,
// coarse-lock stack), a registry of both, the Lab that runs one Cell of
// (construction, object, threads, ...) by name, and the list of the
// paper's figures as tables over such cells.
//
// All four mutual-exclusion constructions expose the same interface: an
// Executor hands each simulated thread a Handle whose Apply(op, arg)
// executes the operation (an opcode on a sequential Object) in mutual
// exclusion. Opcode dispatch mirrors the paper's inlining optimization:
// clients ship a unique opcode of the critical section to the servicing
// thread instead of a function pointer (§5.2).
package simalgo

import "hybsync/internal/tilesim"

// Object is a sequential data structure whose operations are executed in
// mutual exclusion by whichever Proc currently services requests. All of
// the object's memory traffic is issued through that Proc, so the
// object's working set naturally stays in the servicing core's cache —
// the data-locality effect the server and combining approaches exploit.
type Object interface {
	// Exec runs opcode op with argument arg against the object's state,
	// issuing simulated memory operations via p, and returns the result.
	Exec(p *tilesim.Proc, op, arg uint64) uint64
}

// Executor is a mutual-exclusion construction: it executes opcodes on an
// underlying Object, one at a time, on behalf of many threads.
type Executor interface {
	// Handle returns the per-thread handle for Proc p. It must be called
	// exactly once per Proc, from that Proc's own body.
	Handle(p *tilesim.Proc) Handle
}

// Handle is a thread's private capability to submit operations.
type Handle interface {
	// Apply executes opcode op with argument arg in mutual exclusion and
	// returns the operation's result.
	Apply(op, arg uint64) uint64
}

// Combiner is implemented by the executors that combine: rounds is the
// number of completed combining rounds, combined the requests served in
// them (what core.StatsSource reports natively).
type Combiner interface {
	CombiningStats() (rounds, combined uint64)
}

// Opcodes shared by the evaluation objects.
const (
	OpInc  uint64 = 1 // counter: fetch-and-increment
	OpIncN uint64 = 2 // array counter: increment arg cells (Fig 4c)
	OpEnq  uint64 = 3 // queue: enqueue arg
	OpDeq  uint64 = 4 // queue: dequeue (returns EmptyVal when empty)
	OpPush uint64 = 5 // stack: push arg
	OpPop  uint64 = 6 // stack: pop (returns EmptyVal when empty)
)

// EmptyVal is returned by OpDeq/OpPop on an empty container.
const EmptyVal = ^uint64(0)
