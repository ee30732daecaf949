package telemetry

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/pad"
)

const (
	// NumBuckets is the log₂ bucket count: bits.Len64 of a uint64 is
	// 0..64, one bucket per value.
	NumBuckets = 65
	// NumShards is the histogram shard-row count. Recorders are bound
	// to rows round-robin; with typical handle counts well above the
	// row count some sharing is expected — the rows exist to spread
	// contention and kill false sharing, not to be strictly private.
	NumShards = 16
)

// histRow is the hot state of one histogram shard. sum and max sit
// after the bucket array, on their own line boundary only by virtue of
// the whole-row rounding below; within a row a single goroutine is the
// common writer, so internal layout does not matter — only the
// row-to-row boundary does.
type histRow struct {
	buckets [NumBuckets]atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
}

// paddedRow rounds histRow up to a whole number of cache lines so
// adjacent shard rows never false-share (the pad package idiom).
type paddedRow struct {
	histRow
	_ [pad.CacheLine - unsafe.Sizeof(histRow{})%pad.CacheLine]byte
}

// Histogram is a sharded, lock-free log₂ histogram. record touches
// only the caller's shard row (two atomic adds plus a usually-skipped
// max update); snapshot merges all rows with plain atomic loads. The
// zero value is ready to use.
type Histogram struct {
	rows [NumShards]paddedRow
}

// record adds v to the shard's bucket, sum and max. The count is not
// stored — snapshot derives it from the buckets, which keeps the
// record path at two adds and makes Count always consistent with the
// bucket array it is reported beside.
func (h *Histogram) record(shard uint32, v uint64) {
	r := &h.rows[shard].histRow
	r.buckets[bucketOf(v)].Add(1)
	r.sum.Add(v)
	for {
		cur := r.max.Load()
		if v <= cur || r.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// snapshot merges every shard row into one Hist.
func (h *Histogram) snapshot() Hist {
	var out Hist
	for i := range h.rows {
		r := &h.rows[i].histRow
		for b := range r.buckets {
			c := r.buckets[b].Load()
			out.Buckets[b] += c
			out.Count += c
		}
		out.Sum += r.sum.Load()
		if m := r.max.Load(); m > out.Max {
			out.Max = m
		}
	}
	return out
}
