// Package object exposes the concurrent objects of the paper's
// evaluation (§5.3-§5.4) over the public hybsync API: a linearizable
// counter, the Michael & Scott queues in one-lock and two-lock form,
// the coarse-lock stack — each constructed over any registered
// algorithm by name — plus the nonblocking LCRQ queue and Treiber
// stack, which need no executor at all, and the sharded objects
// (NewShardedCounter, NewMap) whose state is partitioned across N
// executors by the hybsync/shard router. Every object is a native
// batch object (hybsync.Object): each run a construction forms —
// a drained server batch, a combining round, a lock-held ApplyBatch —
// executes against it in one DispatchBatch call. Batched operations
// ride the executors' submission pipeline: CounterHandle.AddN ships a
// whole batch of increments for one round trip, and MapHandle.GetAll
// and MapHandle.MultiPut overlap multi-key lookups and stores across
// shards with same-shard keys grouped into single batch calls.
//
//	ctr, err := object.NewCounter("hybcomb", hybsync.WithMaxThreads(16))
//	h, err := ctr.NewHandle() // one per goroutine
//	h.Inc()
//	_ = ctr.Close()
package object

import (
	"hybsync"
	"hybsync/internal/conc"
	"hybsync/internal/shard"
)

// EmptyVal is returned by Dequeue/Pop on an empty container.
const EmptyVal = conc.EmptyVal

// The object and handle types; handles are per-goroutine, obtained
// from the object's NewHandle, and every executor-backed object has an
// idempotent Close that shuts its construction down.
type (
	Counter       = conc.Counter
	CounterHandle = conc.CounterHandle
	MSQueue1      = conc.MSQueue1
	MSQueue2      = conc.MSQueue2
	QueueHandle   = conc.QueueHandle
	Stack         = conc.Stack
	StackHandle   = conc.StackHandle
	LCRQueue      = conc.LCRQueue
	TreiberStack  = conc.TreiberStack
)

// The sharded objects: state partitioned across N independent executors
// by the hybsync/shard router, so unrelated keys proceed in parallel
// while each shard keeps the single-server guarantees.
type (
	ShardedCounter       = shard.Counter
	ShardedCounterHandle = shard.CounterHandle
	Map                  = shard.Map
	MapHandle            = shard.MapHandle
)

// Sentinels of the sharded map (keys and values are 32-bit): MapFullVal
// reports a Put into a shard at capacity; absent keys read as EmptyVal.
const MapFullVal = shard.FullVal

// factory adapts an algorithm name plus options into the executor
// factory the object layer consumes. The objects are native batch
// objects (hybsync.Object), so they go through NewObject — every run a
// construction forms executes against the object in one DispatchBatch
// call.
func factory(algo string, opts []hybsync.Option) conc.ExecutorFactory {
	return func(obj hybsync.Object) (hybsync.Executor, error) {
		return hybsync.NewObject(algo, obj, opts...)
	}
}

// NewCounter builds a linearizable fetch-and-increment counter over the
// named algorithm.
func NewCounter(algo string, opts ...hybsync.Option) (*Counter, error) {
	return conc.NewCounter(factory(algo, opts))
}

// NewMSQueue1 builds the one-lock Michael & Scott queue (Figure 5a)
// over the named algorithm.
func NewMSQueue1(algo string, opts ...hybsync.Option) (*MSQueue1, error) {
	return conc.NewMSQueue1(factory(algo, opts))
}

// NewMSQueue2 builds the two-lock Michael & Scott queue over two
// independent executors of the named algorithm (for "mpserver" that
// means two executors on the server pool: two server loops where
// GOMAXPROCS leaves room for them, one shared loop otherwise — the cost
// §5.4 discusses).
func NewMSQueue2(algo string, opts ...hybsync.Option) (*MSQueue2, error) {
	return conc.NewMSQueue2(factory(algo, opts))
}

// NewStack builds the coarse-lock stack (Figure 5b) over the named
// algorithm.
func NewStack(algo string, opts ...hybsync.Option) (*Stack, error) {
	return conc.NewStack(factory(algo, opts))
}

// NewLCRQueue builds the nonblocking LCRQ-style queue (Morrison & Afek,
// PPoPP'13) with the given ring size; it runs over plain atomics and
// needs no executor.
func NewLCRQueue(ringSize int) *LCRQueue { return conc.NewLCRQueue(ringSize) }

// NewTreiberStack builds Treiber's nonblocking stack; it runs over
// plain atomics and needs no executor.
func NewTreiberStack() *TreiberStack { return conc.NewTreiberStack() }

// shardFactory adapts an algorithm name plus options into the per-shard
// executor factory the shard router consumes.
func shardFactory(algo string, opts []hybsync.Option) shard.ExecFactory {
	return func(_ int, obj hybsync.Object) (hybsync.Executor, error) {
		return hybsync.NewObject(algo, obj, opts...)
	}
}

// NewShardedCounter builds a fetch-and-increment counter partitioned
// across nshards independent executors of the named algorithm
// (Fibonacci key routing). Handle.Inc(key) increments key's shard,
// Handle.IncAll(keys) every key's — each touched shard in one
// mutual-exclusion run — and Handle.Sum aggregates the global value
// shard-by-shard.
func NewShardedCounter(algo string, nshards int, opts ...hybsync.Option) (*ShardedCounter, error) {
	return shard.NewCounter(nshards, nil, shardFactory(algo, opts))
}

// NewMap builds the fixed-capacity open-addressing uint32→uint32 hash
// map whose buckets are delegation-protected per shard, over nshards
// executors of the named algorithm. capacity is the total slot count
// (rounded up to a power of two per shard).
func NewMap(algo string, nshards, capacity int, opts ...hybsync.Option) (*Map, error) {
	return shard.NewMap(nshards, capacity, nil, shardFactory(algo, opts))
}
