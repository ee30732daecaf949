package harness

import (
	"sync"
	"sync/atomic"
	"time"
)

// NativeResult is one native-layer measurement.
type NativeResult struct {
	Ops       uint64
	Duration  time.Duration
	PerThread []uint64
}

// Mops returns throughput in million operations per second.
func (r NativeResult) Mops() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Duration.Seconds() / 1e6
}

// Fairness returns the max/min per-thread op-count ratio (1 = ideal).
func (r NativeResult) Fairness() float64 {
	if len(r.PerThread) == 0 {
		return 0
	}
	lo, hi := r.PerThread[0], r.PerThread[0]
	for _, n := range r.PerThread[1:] {
		if n < lo {
			lo = n
		}
		if n > hi {
			hi = n
		}
	}
	if lo == 0 {
		return 0
	}
	return float64(hi) / float64(lo)
}

// sink defeats dead-code elimination of the local-work loop.
var sink atomic.Uint64

// LocalWork spins for n empty loop iterations, mirroring the paper's
// methodology of separating operations by up to 50 iterations of local
// work to prevent long runs.
func LocalWork(n uint64) {
	var s uint64
	for i := uint64(0); i < n; i++ {
		s += i
	}
	if s == ^uint64(0) {
		sink.Store(s)
	}
}

// XorShift is a tiny per-thread PRNG for workload decisions.
type XorShift uint64

// NewXorShift seeds a generator (seed 0 is remapped).
func NewXorShift(seed uint64) XorShift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return XorShift(seed)
}

// Next returns the next pseudo-random value.
func (x *XorShift) Next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = XorShift(v)
	return v
}

// RunNative runs `threads` goroutines for `dur`, each repeatedly calling
// body(thread, i) followed by up to maxLocalWork iterations of local
// work, and returns the aggregate op count. body must be safe for
// concurrent use across threads (each thread should build its own
// handles inside setup).
func RunNative(threads int, dur time.Duration, maxLocalWork uint64, setup func(thread int) func(i uint64)) NativeResult {
	return RunNativeDrain(threads, dur, maxLocalWork, func(t int) (func(i uint64), func()) {
		return setup(t), nil
	})
}

// RunNativeDrain is RunNative for pipelined workloads: setup returns
// the iteration body plus a drain func (may be nil) that the worker
// goroutine itself runs after the stop flag fires, while the other
// workers are still iterating or draining.
//
// The drain runs inside the worker, concurrently with its peers, by
// convention: a construction whose unwaited submissions could hold up
// another thread's in-loop Wait would deadlock if the flushes only
// started after every worker returned. CC-Synch's per-request cells
// once could (an unwaited cell held the round's combiner duty; found by
// the hybsweep grid at gomaxprocs=2, algo=ccsynch, threads=4, depth=8,
// and replayed by measure's TestAsyncDrainLiveness).
func RunNativeDrain(threads int, dur time.Duration, maxLocalWork uint64, setup func(thread int) (body func(i uint64), drain func())) NativeResult {
	var stop atomic.Bool
	per := make([]uint64, threads)
	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			body, drain := setup(t)
			rng := NewXorShift(uint64(t + 1))
			ready.Done()
			start.Wait()
			var n uint64
			for {
				// Complete at least one op per thread so per-thread
				// statistics (fairness) are well-defined even on hosts
				// where a goroutine barely gets scheduled in the window.
				body(n)
				n++
				if stop.Load() {
					break
				}
				if maxLocalWork > 0 {
					LocalWork(rng.Next() % (maxLocalWork + 1))
				}
			}
			if drain != nil {
				drain()
			}
			per[t] = n
		}(t)
	}
	ready.Wait()
	t0 := time.Now()
	start.Done()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(t0)
	var total uint64
	for _, n := range per {
		total += n
	}
	return NativeResult{Ops: total, Duration: elapsed, PerThread: per}
}
