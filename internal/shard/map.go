package shard

import (
	"fmt"

	"hybsync/internal/core"
	"hybsync/internal/telemetry"
)

// Map opcodes.
const (
	mapOpPut uint64 = 1
	mapOpGet uint64 = 2
	mapOpDel uint64 = 3
	mapOpLen uint64 = 4
)

// Map result sentinels. Keys and values are 32-bit (packed into the
// single 64-bit operation argument), so both sentinels are outside the
// value range.
const (
	// EmptyVal reports "no previous value" from Get/Put/Delete.
	EmptyVal = ^uint64(0)
	// FullVal reports a Put into a shard whose fixed-capacity table has
	// no free slot left for a new key.
	FullVal = ^uint64(0) - 1
)

// Slot states of the open-addressing table.
const (
	slotEmpty uint8 = iota
	slotFull
	slotTomb
)

// mapShard is one shard's private fixed-capacity open-addressing hash
// table (linear probing, tombstone deletion). It is touched only inside
// its shard's critical section.
type mapShard struct {
	keys  []uint32
	vals  []uint32
	state []uint8
	live  uint64 // slotFull count
}

// Map is a fixed-capacity uint32→uint32 hash map whose buckets are
// delegation-protected per shard: key k lives in shard
// Partitioner(k, nshards), and every operation on that shard's table
// runs as a critical section of that shard's executor. Operations on
// different shards proceed in parallel; there is no cross-shard
// atomicity (Len is a per-shard-linearizable Aggregate, not a
// snapshot).
type Map struct {
	r      *Router
	shards []mapShard
}

// NewMap builds the sharded map over nshards executors made by f,
// routing with part (nil = Fibonacci). capacity is the total slot
// count; it is split evenly and rounded up to a power of two per shard,
// so the usable capacity is at least the requested one. A Put whose
// shard is full fails with FullVal rather than growing the table.
func NewMap(nshards, capacity int, part Partitioner, f ExecFactory) (*Map, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("shard: NewMap(capacity=%d): capacity must be positive: %w",
			capacity, core.ErrBadOption)
	}
	m := &Map{}
	r, err := NewObjectRouter(nshards, mapObject{m: m}, part, f)
	if err != nil {
		return nil, err
	}
	per := nextPow2((capacity + nshards - 1) / nshards)
	m.shards = make([]mapShard, nshards)
	for i := range m.shards {
		m.shards[i] = mapShard{
			keys:  make([]uint32, per),
			vals:  make([]uint32, per),
			state: make([]uint8, per),
		}
	}
	m.r = r
	return m, nil
}

// nextPow2 rounds n up to a power of two (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// mapObject is the map's native KeyedObject: a run against one shard
// resolves the table pointer once and walks the run's decoded
// operations against it directly — same-shard keys grouped by
// MultiApply (GetAll, MultiPut) execute with no per-key dispatch
// indirection.
type mapObject struct{ m *Map }

func (o mapObject) DispatchShardBatch(shard int, reqs []core.Req, results []uint64) {
	s := &o.m.shards[shard]
	for i, r := range reqs {
		key := uint32(r.Arg >> 32)
		val := uint32(r.Arg)
		switch r.Op {
		case mapOpPut:
			results[i] = s.put(key, val)
		case mapOpGet:
			results[i] = s.get(key)
		case mapOpDel:
			results[i] = s.del(key)
		case mapOpLen:
			results[i] = s.live
		default:
			panic("shard: bad map opcode")
		}
	}
}

// slotFor is the probe start: Fibonacci hash of the key reduced by the
// power-of-two mask.
func (s *mapShard) slotFor(key uint32) int {
	const phi32 = 0x9E3779B9
	return int(key*phi32) & (len(s.state) - 1)
}

func (s *mapShard) put(key, val uint32) uint64 {
	n := len(s.state)
	i := s.slotFor(key)
	insert := -1
	for probes := 0; probes < n; probes++ {
		switch s.state[i] {
		case slotEmpty:
			if insert < 0 {
				insert = i
			}
			goto place
		case slotTomb:
			if insert < 0 {
				insert = i
			}
		case slotFull:
			if s.keys[i] == key {
				old := s.vals[i]
				s.vals[i] = val
				return uint64(old)
			}
		}
		i = (i + 1) & (n - 1)
	}
place:
	if insert < 0 {
		return FullVal
	}
	s.keys[insert] = key
	s.vals[insert] = val
	s.state[insert] = slotFull
	s.live++
	return EmptyVal
}

func (s *mapShard) get(key uint32) uint64 {
	n := len(s.state)
	i := s.slotFor(key)
	for probes := 0; probes < n; probes++ {
		switch s.state[i] {
		case slotEmpty:
			return EmptyVal
		case slotFull:
			if s.keys[i] == key {
				return uint64(s.vals[i])
			}
		}
		i = (i + 1) & (n - 1)
	}
	return EmptyVal
}

func (s *mapShard) del(key uint32) uint64 {
	n := len(s.state)
	i := s.slotFor(key)
	for probes := 0; probes < n; probes++ {
		switch s.state[i] {
		case slotEmpty:
			return EmptyVal
		case slotFull:
			if s.keys[i] == key {
				s.state[i] = slotTomb
				s.live--
				return uint64(s.vals[i])
			}
		}
		i = (i + 1) & (n - 1)
	}
	return EmptyVal
}

// NewHandle returns a per-goroutine handle.
func (m *Map) NewHandle() (*MapHandle, error) {
	h, err := m.r.NewHandle()
	if err != nil {
		return nil, err
	}
	return &MapHandle{h: h}, nil
}

// Close shuts down every shard's executor; idempotent.
func (m *Map) Close() error { return m.r.Close() }

// Occupancy reports per-shard executed-operation counts; safe
// concurrently with operations.
func (m *Map) Occupancy() []uint64 { return m.r.Occupancy() }

// Stats reports the summed combining statistics of the shard executors
// when any keeps them; read only at quiescence.
func (m *Map) Stats() (rounds, combined uint64, ok bool) { return m.r.CombiningStats() }

// Pipeline reports the aggregated backpressure counters of the shard
// executors when any of them keeps such counters (ok false otherwise);
// read only at pipeline quiescence.
func (m *Map) Pipeline() (submitStalls, maxDepth uint64, ok bool) {
	return m.r.PipelineCounters()
}

// Telemetry reports the merged telemetry snapshot of the shard
// executors when any carries an armed metric core (ok false
// otherwise); may be read at any time.
func (m *Map) Telemetry() (telemetry.Snapshot, bool) { return m.r.TelemetrySnapshot() }

// Len reads the live-entry count; call only at quiescence (use a
// handle's Len for a concurrent per-shard-linearizable read).
func (m *Map) Len() uint64 {
	var n uint64
	for i := range m.shards {
		n += m.shards[i].live
	}
	return n
}

// packArg packs a map key and value into the single operation argument.
func packArg(key, val uint32) uint64 { return uint64(key)<<32 | uint64(val) }

// MapHandle is a goroutine's capability to use the map.
type MapHandle struct {
	h *Handle
}

// Put stores key→val, returning the previous value, EmptyVal when the
// key is new, or FullVal when the key's shard is at capacity.
func (h *MapHandle) Put(key, val uint32) (uint64, error) {
	return h.h.Apply(uint64(key), mapOpPut, packArg(key, val))
}

// Get returns key's value, or EmptyVal when absent.
func (h *MapHandle) Get(key uint32) (uint64, error) {
	return h.h.Apply(uint64(key), mapOpGet, packArg(key, 0))
}

// Delete removes key, returning the removed value or EmptyVal.
func (h *MapHandle) Delete(key uint32) (uint64, error) {
	return h.h.Apply(uint64(key), mapOpDel, packArg(key, 0))
}

// Len aggregates per-shard live-entry counts: linearizable per shard,
// not an atomic snapshot.
func (h *MapHandle) Len() (uint64, error) { return h.h.Aggregate(mapOpLen, 0) }

// GetAll looks up every key and returns the values (EmptyVal for
// absent keys) in input order: a MultiApply straight from the 32-bit
// keys. Every touched shard receives its keys as one batch before any
// lookup is waited for, so keys living on different shards are served
// concurrently — one round of cross-shard overlap instead of len(keys)
// sequential round trips — and each shard looks its keys up in one
// mutual-exclusion run. Each lookup linearizes on its own shard; the
// batch is not an atomic snapshot.
func (h *MapHandle) GetAll(keys []uint32) ([]uint64, error) {
	return h.h.multiApply(mapOpGet, len(keys), func(i int) (key, arg uint64) {
		return uint64(keys[i]), packArg(keys[i], 0)
	})
}

// MultiPut stores keys[i]→vals[i] for every i and returns the previous
// values in input order (EmptyVal for new keys, FullVal where a key's
// shard is at capacity) — GetAll's write-side mirror, riding the same
// shard-grouped MultiApply: one overlapped cross-shard round, each
// shard storing its puts in one mutual-exclusion run. A duplicate key
// later in the batch observes the value an earlier entry stored (puts
// execute in batch order per shard); the batch is not atomic across
// shards.
func (h *MapHandle) MultiPut(keys, vals []uint32) ([]uint64, error) {
	if len(vals) != len(keys) {
		return nil, fmt.Errorf("shard: MultiPut: %d keys but %d vals", len(keys), len(vals))
	}
	return h.h.multiApply(mapOpPut, len(keys), func(i int) (key, arg uint64) {
		return uint64(keys[i]), packArg(keys[i], vals[i])
	})
}
