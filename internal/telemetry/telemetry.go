// Package telemetry is the repository's lock-free metric layer: padded
// per-shard histogram and counter cores cheap enough to compile into
// every construction, armed per executor with core.WithTelemetry and
// read with a merge-on-read Snapshot.
//
// The design splits hot-path cost from read-path cost the same way
// core's per-handle counter cells (summed for core.PipelineStats) do:
//
//   - Recording is one or two uncontended atomic adds on a
//     cache-line-padded shard row owned (modulo round-robin reuse) by
//     the recording goroutine. There are no locks anywhere on the
//     record path and nothing is computed: a latency sample is a single
//     log₂-bucket increment.
//   - Reading (Snapshot) merges every shard row with plain atomic
//     loads and derives quantiles from the merged buckets. Snapshots
//     are NOT consistent cuts — writers keep recording while the
//     reader walks the shards — but every field is monotonic, so a
//     Snapshot is exact at quiescence and a bounded-drift estimate
//     under load (see Hist).
//   - Disarmed is the default: a nil *Telemetry hands out nil
//     *Recorders, and every Recorder and Telemetry method nil-checks
//     its receiver, so the disarmed hot path is one predictable branch
//     with no clock reads.
//
// Latency recording is sampled (default one in 16 blocking calls per
// Recorder) so the two time.Now calls bracketing a sampled operation
// amortize to noise; run-length recording is exhaustive, because one
// record per DispatchBatch run is already amortized across the run.
package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// DefaultSampleInterval is New's latency sampling interval: one in
// this many Sample calls per Recorder returns true.
const DefaultSampleInterval = 16

// Telemetry is one executor's metric core: a blocking-call latency
// histogram (nanoseconds; Apply, Wait and ApplyBatch calls), a
// run-length histogram (requests per DispatchBatch run the
// construction formed), and the fault/backpressure event counters. A
// nil *Telemetry is the disarmed state; every method is nil-safe.
//
// One Telemetry may be shared by several executors (the sharded
// benches attach one to every shard): the histograms and counters
// simply aggregate across them.
type Telemetry struct {
	lat Histogram // blocking-call latency, ns
	run Histogram // requests per DispatchBatch run

	// Rare-event counters: incremented on paths that are already slow
	// (a tripped poison latch, a stall report, a full pipeline), so a
	// direct atomic add is noise.
	poisons      atomic.Uint64
	stalls       atomic.Uint64
	submitStalls atomic.Uint64

	sampleEvery uint32
	nextRec     atomic.Uint32
}

// New returns an armed Telemetry with the default latency sampling
// interval.
func New() *Telemetry { return NewSampled(DefaultSampleInterval) }

// NewSampled returns an armed Telemetry whose Recorders sample one in
// every latency observations (every <= 1 records every blocking call —
// what the correctness tests use; benchmarks keep the default so the
// bracketing clock reads amortize away).
func NewSampled(every int) *Telemetry {
	if every < 1 {
		every = 1
	}
	return &Telemetry{sampleEvery: uint32(every)}
}

// Recorder returns a recording capability bound to one histogram shard
// (round-robin). Each recording goroutine (an executor handle, a
// server loop) should hold its own; a nil Telemetry returns a nil
// Recorder, which records nothing. Recorders are not safe for
// concurrent use — like the handles that own them.
func (t *Telemetry) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	seq := t.nextRec.Add(1) - 1
	return &Recorder{
		t:     t,
		shard: seq % NumShards,
		// Stagger the first sample per recorder so same-interval
		// recorders do not observe in lockstep phases.
		tick:  seq%t.sampleEvery + 1,
		every: t.sampleEvery,
	}
}

// NotePoison counts one poison-latch trip. Called by the latch on the
// winning CAS only, so the counter equals the number of executors this
// Telemetry is attached to that entered the terminal fault state.
func (t *Telemetry) NotePoison() {
	if t != nil {
		t.poisons.Add(1)
	}
}

// NoteStall counts one stall-watchdog report (a wait that made no
// progress past its stall budget — see backoff.Watched).
func (t *Telemetry) NoteStall() {
	if t != nil {
		t.stalls.Add(1)
	}
}

// NoteSubmitStall counts one submission that found its handle's
// pipeline full, mirroring the submit stalls core's pipeline counters
// report (core.PipelineStats) as a telemetry event.
func (t *Telemetry) NoteSubmitStall() {
	if t != nil {
		t.submitStalls.Add(1)
	}
}

// StallHook returns a callback for backoff.Watched.SetOnStall that
// counts watchdog firings here, or nil when disarmed (SetOnStall
// treats nil as "no hook").
func (t *Telemetry) StallHook() func() {
	if t == nil {
		return nil
	}
	return func() { t.stalls.Add(1) }
}

// Snapshot merges every shard and returns the current totals. Safe
// from any goroutine, concurrently with recording; exact once the
// executor is quiescent.
func (t *Telemetry) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	return Snapshot{
		Latency:      t.lat.snapshot(),
		RunLen:       t.run.snapshot(),
		Poisons:      t.poisons.Load(),
		Stalls:       t.stalls.Load(),
		SubmitStalls: t.submitStalls.Load(),
	}
}

// Recorder is a per-goroutine recording capability over one Telemetry.
// The nil Recorder is the disarmed state: Sample reports false and the
// observe methods do nothing, so call sites pay one branch.
type Recorder struct {
	t     *Telemetry
	shard uint32
	tick  uint32 // countdown to the next latency sample
	every uint32
}

// Sample reports whether the caller should time this blocking call
// (and then hand the elapsed time to Latency). One in every calls
// returns true; a nil Recorder always reports false, keeping the
// disarmed path free of clock reads.
func (r *Recorder) Sample() bool {
	if r == nil {
		return false
	}
	r.tick--
	if r.tick == 0 {
		r.tick = r.every
		return true
	}
	return false
}

// Latency records the time elapsed since start (one sampled blocking
// call). Call it only when the matching Sample returned true.
func (r *Recorder) Latency(start time.Time) {
	if r == nil {
		return
	}
	d := time.Since(start)
	if d < 0 {
		d = 0
	}
	r.t.lat.record(r.shard, uint64(d))
}

// RunLen records one DispatchBatch run of n requests. Unsampled: a
// run's record cost amortizes across its requests.
func (r *Recorder) RunLen(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.t.run.record(r.shard, uint64(n))
}

// Snapshot is one merged read of a Telemetry: the two histograms plus
// the event counters. It is a plain value — subtract with Delta, add
// with Merge. The debug endpoint serves its own view of it (see
// package export).
type Snapshot struct {
	Latency      Hist   `json:"latency_ns"`
	RunLen       Hist   `json:"run_len"`
	Poisons      uint64 `json:"poisons"`
	Stalls       uint64 `json:"stall_reports"`
	SubmitStalls uint64 `json:"submit_stalls"`
}

// Delta returns the change from prev to s — the interval view a
// periodic reader (or a promotion heuristic polling an executor) wants.
// Histogram Max fields are lifetime maxima, not interval maxima: Delta
// keeps s's value.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	return Snapshot{
		Latency:      s.Latency.delta(prev.Latency),
		RunLen:       s.RunLen.delta(prev.RunLen),
		Poisons:      s.Poisons - prev.Poisons,
		Stalls:       s.Stalls - prev.Stalls,
		SubmitStalls: s.SubmitStalls - prev.SubmitStalls,
	}
}

// Merge returns the element-wise sum of two snapshots (Max is the
// maximum) — how the shard router aggregates per-shard telemetry.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	return Snapshot{
		Latency:      s.Latency.merge(other.Latency),
		RunLen:       s.RunLen.merge(other.RunLen),
		Poisons:      s.Poisons + other.Poisons,
		Stalls:       s.Stalls + other.Stalls,
		SubmitStalls: s.SubmitStalls + other.SubmitStalls,
	}
}

// Hist is one merged histogram: log₂ buckets (Buckets[i] counts values
// v with bits.Len64(v) == i, i.e. bucket 0 is exactly 0 and bucket i
// covers [2^(i-1), 2^i)), the exact sum and the lifetime maximum.
// Count is derived from the buckets at snapshot time, so it is always
// consistent with them; Sum and Max are read separately and may drift
// by in-flight records under load.
type Hist struct {
	Count   uint64             `json:"count"`
	Sum     uint64             `json:"sum"`
	Max     uint64             `json:"max"`
	Buckets [NumBuckets]uint64 `json:"buckets"`
}

// Mean returns the average recorded value (0 when empty).
func (h Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile returns an upper bound on the q-quantile (0 < q <= 1) of
// the recorded values: the upper edge of the log₂ bucket holding that
// rank, clamped to the recorded maximum. The bound is tight to within
// the bucket's 2× resolution — Quantile(0.5) <= 2 × the true median.
func (h Hist) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.Buckets {
		cum += c
		if cum >= rank {
			ub := bucketMax(i)
			if h.Max > 0 && ub > h.Max {
				ub = h.Max
			}
			return ub
		}
	}
	return h.Max
}

func (h Hist) delta(prev Hist) Hist {
	d := Hist{Count: h.Count - prev.Count, Sum: h.Sum - prev.Sum, Max: h.Max}
	for i := range h.Buckets {
		d.Buckets[i] = h.Buckets[i] - prev.Buckets[i]
	}
	return d
}

func (h Hist) merge(other Hist) Hist {
	m := Hist{Count: h.Count + other.Count, Sum: h.Sum + other.Sum, Max: h.Max}
	if other.Max > m.Max {
		m.Max = other.Max
	}
	for i := range h.Buckets {
		m.Buckets[i] = h.Buckets[i] + other.Buckets[i]
	}
	return m
}

// bucketOf maps a value to its log₂ bucket.
func bucketOf(v uint64) int { return bits.Len64(v) }

// bucketMax is the largest value bucket i can hold.
func bucketMax(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxUint64
	}
	return uint64(1)<<i - 1
}
