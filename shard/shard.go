// Package shard is the public face of the sharded-delegation subsystem:
// a Router that partitions a keyed object across N independent
// executors of any registered algorithm, per-goroutine handles that
// lazily attach to the shards they touch, and multi-shard reads
// (Broadcast/Aggregate) executed shard-by-shard without global locking.
//
//	var parts [8]uint64
//	r, err := shard.NewObject("mpserver", 8, shard.KeyedFunc(func(s int, op, arg uint64) uint64 {
//		parts[s] += arg // runs in shard s's critical section
//		return parts[s]
//	}))
//	h, err := r.NewHandle()          // one per goroutine
//	v, err := h.Apply(key, 0, 1)     // routes key to its shard
//	t, err := h.Submit(key, 0, 1)    // same, without waiting
//	v = h.Wait(t)                    // redeem the ticket
//	vs, err := h.MultiApply(0, keys, nil) // one batch per touched shard, overlapped
//	sum, err := h.Aggregate(1, 0)    // fold a read over every shard
//	_ = r.Close()                    // fan-out, idempotent (Flush handles first)
//
// MultiApply groups its keys by shard and hands every touched shard its
// group as one Handle.SubmitBatch of that shard's executor before it
// waits for any result: shards overlap wherever the construction can
// leave a batch owed, and each shard executes its group as one
// mutual-exclusion run — one lock acquisition, one combining round's
// own run — instead of one per key.
//
// Per shard, the paper's single-server guarantees hold (every operation
// on that shard runs in mutual exclusion); across shards the router
// guarantees nothing — see DESIGN.md "Sharded delegation". Lifecycle
// errors are the root package's sentinels: NewHandle after Close fails
// with hybsync.ErrClosed, and exhausting one shard's MaxThreads
// surfaces hybsync.ErrTooManyHandles from the first Apply touching it.
package shard

import (
	"fmt"

	"hybsync"
	"hybsync/internal/core"
	ishard "hybsync/internal/shard"
)

// The router and handle types; see the internal/shard documentation on
// the methods.
type (
	// Router partitions a keyed object across independent executors.
	Router = ishard.Router
	// Handle routes one goroutine's operations; obtain from Router.NewHandle.
	Handle = ishard.Handle
	// Ticket identifies one outstanding routed submission; redeem with
	// the issuing Handle's Wait exactly once.
	Ticket = ishard.Ticket
	// KeyedObject is the batch-aware sharded execution contract: a
	// whole run against one shard executes as one DispatchShardBatch
	// call of that shard's executor.
	KeyedObject = ishard.KeyedObject
	// KeyedFunc adapts a bare func(shard int, op, arg uint64) uint64 into
	// a KeyedObject that loops.
	KeyedFunc = ishard.KeyedFunc
	// Partitioner maps a key to a shard in [0, nshards).
	Partitioner = ishard.Partitioner
	// ExecFactory builds the executor protecting one shard around that
	// shard's core.Object view.
	ExecFactory = ishard.ExecFactory
)

// Fibonacci is the default key→shard Partitioner (Fibonacci hashing).
func Fibonacci(key uint64, nshards int) int { return ishard.Fibonacci(key, nshards) }

// Modulo is the naive key%nshards Partitioner (ablation baseline).
func Modulo(key uint64, nshards int) int { return ishard.Modulo(key, nshards) }

// HotKeyIsolating wraps base so the listed hot keys of a Zipf-skewed
// workload get shards of their own; see internal/shard.HotKeyIsolating.
func HotKeyIsolating(base Partitioner, hot ...uint64) Partitioner {
	return ishard.HotKeyIsolating(base, hot...)
}

// NewObject builds a router of nshards shards that all run the named
// algorithm, routing with the default Fibonacci partitioner; a
// non-positive nshards fails with hybsync.ErrBadOption. The options
// configure each shard's executor independently. Every run a shard's
// executor forms (a drained server batch, a combining round, a
// MultiApply group) reaches obj as one DispatchShardBatch call for that
// shard; a bare function is NewObject(algo, nshards, KeyedFunc(f)).
func NewObject(algo string, nshards int, obj KeyedObject, opts ...hybsync.Option) (*Router, error) {
	return NewObjectPartitioned(algo, nshards, obj, nil, opts...)
}

// NewObjectPartitioned is NewObject with an explicit Partitioner (nil
// selects Fibonacci).
func NewObjectPartitioned(algo string, nshards int, obj KeyedObject, part Partitioner, opts ...hybsync.Option) (*Router, error) {
	return ishard.NewObjectRouter(nshards, obj, part, factoryFor(algo, opts))
}

// NewMixed builds a router with one shard per listed algorithm — shard
// i runs algos[i] — for ablating mixed constructions against uniform
// ones.
func NewMixed(algos []string, obj KeyedObject, opts ...hybsync.Option) (*Router, error) {
	if len(algos) == 0 {
		return nil, fmt.Errorf("shard: NewMixed needs at least one algorithm")
	}
	return ishard.NewObjectRouter(len(algos), obj, nil,
		func(s int, obj core.Object) (core.Executor, error) {
			return core.NewObject(algos[s], obj, opts...)
		})
}

// factoryFor adapts an algorithm name plus options into the per-shard
// executor factory the router consumes (hybsync.Option aliases
// core.Option, so the options pass straight through).
func factoryFor(algo string, opts []hybsync.Option) ExecFactory {
	return func(_ int, obj core.Object) (core.Executor, error) {
		return core.NewObject(algo, obj, opts...)
	}
}
