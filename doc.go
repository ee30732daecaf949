// Package hybsync reproduces "Leveraging Hardware Message Passing for
// Efficient Thread Synchronization" (Petrović, Ropars, Schiper —
// PPoPP 2014) and is the public API of the repository: the
// Object/Executor/Handle contract, the string-keyed algorithm
// registry (NewObject, Register, Algorithms), functional options
// (WithMaxThreads, WithMaxOps, WithQueueCap) and the
// uniform lifecycle — error-returning NewHandle and idempotent Close —
// that every construction satisfies.
// The execution contract is batch-aware: an Object's DispatchBatch
// executes a whole drained run of {op, arg} requests in one
// mutual-exclusion call (NewObject; a bare function converts with the
// looping Func adapter), and the Handle contract is a submit/complete
// pipeline: a client need not block between submission and reply, so
// Submit(op, arg) returns a Ticket, Wait(Ticket) collects the result,
// Post fires and forgets, Flush drains, SubmitBatch submits a whole
// batch for one ticket (request i redeems at Ticket.Offset(i)),
// ApplyBatch executes one blocking, and the classic blocking Apply is
// just Submit+Wait. A handle defers its window: its Submits and Posts
// join a pending run — invisible to other threads until then — that
// executes when a completion is demanded (Wait, Flush, a blocking call,
// or QueueCap operations pending): under ONE acquisition on a lock, as
// one combining round's worth on HYBCOMB (registered with an open round
// while it takes requests, the rest executed as the promoted thread's
// own run), as one chain cell on CC-SYNCH, and on MP-SERVER as one
// request message the server answers with one reply.
// hybsync/shard scales the constructions out: a
// router partitions a keyed object across N independent executors
// (sharded counter and fixed-capacity hash map in hybsync/object ride
// on it), and its MultiApply pipelines a keyed batch across shards —
// one SubmitBatch per touched shard before anything is waited for, so
// unrelated shards serve one client concurrently and each shard
// executes its keys as one mutual-exclusion run.
//
// The repository has two layers beneath this package:
//
//   - internal/tilesim + internal/simalgo (public face:
//     hybsync/sim): a deterministic cycle-level simulator of a
//     TILE-Gx-like hybrid manycore (mesh NoC, directory coherence,
//     memory-controller atomics, UDN message network) running the
//     paper's four constructions and evaluation objects. The
//     cmd/tilebench driver regenerates every figure of the paper's §5.
//
//   - internal/core, internal/spin, internal/conc, internal/mpq
//     (public faces: this package and hybsync/object): the same
//     algorithms as a native Go library on real goroutines — every
//     construction in internal/core: MP-SERVER and HYBCOMB over
//     lock-free bounded message queues, CC-SYNCH and SHM-SERVER over
//     shared memory, the MCS queue lock (the algorithm itself in
//     internal/spin) and the hybrid that starts as one and promotes
//     itself to CC-SYNCH — and the evaluation's concurrent objects
//     (counter, MS-Queues, LCRQ, Treiber stack, coarse-lock stack).
//     cmd/hybsweep measures them through the registry, one grid cell
//     at a time.
//
// See README.md for a tour and DESIGN.md for the system inventory,
// the registry and lifecycle contract, and the per-experiment index.
package hybsync
