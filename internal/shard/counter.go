package shard

import (
	"unsafe"

	"hybsync/internal/core"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// Counter opcodes.
const (
	ctrOpInc  uint64 = 1 // fetch-and-increment the shard's partition
	ctrOpRead uint64 = 2 // read the shard's partition
)

// ctrSlot is one shard's partition of the counter, padded to a cache
// line: each slot is touched only inside its shard's critical section,
// and padding keeps neighbouring shards' servers from false-sharing.
type ctrSlot struct {
	ctrHot
	_ [pad.CacheLine - unsafe.Sizeof(ctrHot{})%pad.CacheLine]byte
}

type ctrHot struct{ v uint64 }

// Counter is the sharded fetch-and-increment counter: the §5.3
// microbenchmark object split across nshards independent executors.
// Inc(key) routes to key's shard and increments that shard's partition;
// the global value is the sum over partitions (Sum for a concurrent
// fuzzy read, Value at quiescence).
type Counter struct {
	r    *Router
	vals []ctrSlot
}

// ctrObject is the counter's native KeyedObject: a run against one
// shard reads the partition once, applies the whole run against the
// locally-held value, and writes it back — no per-operation dispatch
// indirection and no per-operation reload of the shared word.
type ctrObject struct{ c *Counter }

func (o ctrObject) DispatchShardBatch(shard int, reqs []core.Req, results []uint64) {
	s := &o.c.vals[shard]
	v := s.v
	for i, r := range reqs {
		switch r.Op {
		case ctrOpInc:
			results[i] = v
			v++
		case ctrOpRead:
			results[i] = v
		default:
			panic("shard: bad counter opcode")
		}
	}
	s.v = v
}

// NewCounter builds the sharded counter over nshards executors made by
// f, routing with part (nil = Fibonacci).
func NewCounter(nshards int, part Partitioner, f ExecFactory) (*Counter, error) {
	c := &Counter{vals: make([]ctrSlot, max(nshards, 1))}
	r, err := NewObjectRouter(nshards, ctrObject{c: c}, part, f)
	if err != nil {
		return nil, err
	}
	c.r = r
	return c, nil
}

// NewHandle returns a per-goroutine handle.
func (c *Counter) NewHandle() (*CounterHandle, error) {
	h, err := c.r.NewHandle()
	if err != nil {
		return nil, err
	}
	return &CounterHandle{h: h}, nil
}

// Close shuts down every shard's executor; idempotent. Per-shard
// errors (including *PoisonError from poisoned shards) aggregate with
// errors.Join.
func (c *Counter) Close() error { return c.r.Close() }

// Err reports the first poisoned shard's *PoisonError, or nil while
// every shard is healthy.
func (c *Counter) Err() error { return c.r.Err() }

// Poison condemns every shard's executor, as if each object partition
// had panicked — the out-of-band fault hook (see Router.Poison).
func (c *Counter) Poison(v any) { c.r.Poison(v) }

// Value reads the global counter; call only while no operations are in
// flight (use a handle's Sum for a concurrent read).
func (c *Counter) Value() uint64 {
	var sum uint64
	for i := range c.vals {
		sum += c.vals[i].v
	}
	return sum
}

// Occupancy reports per-shard executed-operation counts (the workload's
// skew profile); safe concurrently with operations.
func (c *Counter) Occupancy() []uint64 { return c.r.Occupancy() }

// Stats reports the summed combining statistics of the shard executors
// when any of them keeps such statistics; read only at quiescence.
func (c *Counter) Stats() (rounds, combined uint64, ok bool) { return c.r.CombiningStats() }

// Pipeline reports the aggregated backpressure counters of the shard
// executors when any of them keeps such counters (ok false otherwise);
// read only at pipeline quiescence.
func (c *Counter) Pipeline() (submitStalls, maxDepth uint64, ok bool) {
	return c.r.PipelineCounters()
}

// Telemetry reports the merged telemetry snapshot of the shard
// executors when any carries an armed metric core (ok false
// otherwise); may be read at any time.
func (c *Counter) Telemetry() (telemetry.Snapshot, bool) { return c.r.TelemetrySnapshot() }

// CounterHandle is a goroutine's capability to use the sharded counter.
type CounterHandle struct {
	h *Handle
}

// Inc routes to key's shard and fetch-and-increments that shard's
// partition, returning the partition's previous value.
func (h *CounterHandle) Inc(key uint64) (uint64, error) { return h.h.Apply(key, ctrOpInc, 0) }

// IncAll is Inc for every key — a MultiApply, so each touched shard
// increments its partition once per key routed to it in one
// mutual-exclusion run — returning the partitions' previous values in
// input order.
func (h *CounterHandle) IncAll(keys []uint64) ([]uint64, error) {
	return h.h.MultiApply(ctrOpInc, keys, nil)
}

// Sum reads the global counter via Aggregate: linearizable per shard,
// bounded by the counter's value at the start and end of the call, not
// an atomic snapshot.
func (h *CounterHandle) Sum() (uint64, error) { return h.h.Aggregate(ctrOpRead, 0) }
