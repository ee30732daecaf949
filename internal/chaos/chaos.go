// Package chaos holds the fault-injection toolkit behind the
// repository's liveness tests (panic containment and conservation
// under perturbed scheduling, over every construction): Object
// wrappers that panic, delay or corrupt on a deterministic
// schedule, and a seeded scheduler perturber that hooks the backoff
// package's wait points. Everything is seeded and deterministic in
// isolation — under real concurrency the interleavings still vary, but
// the injected faults themselves are reproducible (the n'th dispatched
// operation panics, whichever thread carries it).
//
// The wrappers compose: chaos.Delay(chaos.PanicOnNth(obj, 1000), ...)
// is an object that jitters every dispatch and dies on operation 1000.
package chaos

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
)

// panicOnNth counts dispatched operations (across batches — a batch of
// 32 advances the count by 32) and panics mid-batch when the count
// crosses n. Operations before the fault in the same batch execute
// normally, so a conservation check can account for them.
type panicOnNth struct {
	obj       core.Object
	remaining atomic.Int64
	armed     atomic.Bool
}

// PanicOnNth wraps obj so the n'th dispatched operation (1-based,
// counted across all handles and batches) panics with a recognizable
// value instead of executing. n <= 0 never fires. The wrapper is safe
// for the constructions' dispatch contract (one dispatcher at a time)
// and its counter is shared across every executor built over it.
func PanicOnNth(obj core.Object, n int64) core.Object {
	w := &panicOnNth{obj: obj}
	w.remaining.Store(n)
	w.armed.Store(n > 0)
	return w
}

// DispatchBatch implements core.Object.
func (w *panicOnNth) DispatchBatch(reqs []core.Req, results []uint64) {
	if w.armed.Load() {
		left := w.remaining.Add(-int64(len(reqs)))
		if left <= 0 {
			// The count crossed n inside this batch: the batch's first
			// left+len(reqs)-1 operations precede the fault and execute
			// normally, then the n'th dies.
			if w.armed.CompareAndSwap(true, false) {
				before := int(left) + len(reqs) - 1
				if before < 0 {
					before = 0 // a concurrent executor already crossed n
				}
				if before > 0 {
					w.obj.DispatchBatch(reqs[:before], results[:before])
				}
				panic(fmt.Sprintf("chaos: injected panic on operation (op=%d arg=%d)",
					reqs[before].Op, reqs[before].Arg))
			}
		}
	}
	w.obj.DispatchBatch(reqs, results)
}

// delay jitters dispatch latency: every batch sleeps or yields first,
// drawn from a seeded xorshift so distinct runs with the same seed
// inject the same sequence of stalls.
type delay struct {
	obj   core.Object
	rng   atomic.Uint64
	every uint64 // fire on draws where draw%every == 0
	d     time.Duration
}

// Delay wraps obj so roughly one in every `every` dispatched batches
// stalls for d before executing (the rest merely Gosched). every <= 1
// stalls every batch. Delays inside the serializing construction are
// the interesting ones: they hold up the combiner/server while clients
// pile in, widening the windows the liveness tests probe.
func Delay(obj core.Object, seed uint64, every uint64, d time.Duration) core.Object {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	if every == 0 {
		every = 1
	}
	w := &delay{obj: obj, every: every, d: d}
	w.rng.Store(seed)
	return w
}

// DispatchBatch implements core.Object.
func (w *delay) DispatchBatch(reqs []core.Req, results []uint64) {
	if xorshiftNext(&w.rng)%w.every == 0 {
		time.Sleep(w.d)
	} else {
		runtime.Gosched()
	}
	w.obj.DispatchBatch(reqs, results)
}

// corrupt flips bits in results on a deterministic schedule — the
// fault a conservation test must catch, and the fault a caller-side
// invariant check would answer with Poison.
type corrupt struct {
	obj   core.Object
	n     atomic.Uint64
	every uint64
	mask  uint64
}

// Corrupt wraps obj so every `every`'th result (counted across batches)
// comes back XOR'd with mask. every == 0 corrupts nothing; mask 0 is
// replaced with 1 so a firing wrapper always changes the value.
func Corrupt(obj core.Object, every uint64, mask uint64) core.Object {
	if mask == 0 {
		mask = 1
	}
	return &corrupt{obj: obj, every: every, mask: mask}
}

// DispatchBatch implements core.Object.
func (w *corrupt) DispatchBatch(reqs []core.Req, results []uint64) {
	w.obj.DispatchBatch(reqs, results)
	if w.every == 0 {
		return
	}
	base := w.n.Add(uint64(len(reqs))) - uint64(len(reqs))
	for i := range results {
		if (base+uint64(i)+1)%w.every == 0 {
			results[i] ^= w.mask
		}
	}
}

// xorshiftNext advances a shared xorshift64 state with a CAS loop so
// concurrent drawers (the perturber runs on every waiting thread) stay
// race-free without a lock.
func xorshiftNext(state *atomic.Uint64) uint64 {
	for {
		old := state.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if state.CompareAndSwap(old, x) {
			return x
		}
	}
}

// Perturber is a seeded schedule perturber for backoff wait points:
// installed with Install (which hooks backoff.SetPerturb), it makes a
// small fraction of waits yield the processor and a smaller fraction
// sleep outright, shaking loose interleavings the regular
// spin/yield/sleep ladder would never produce. One Perturber may be
// shared by every waiting goroutine.
type Perturber struct {
	rng atomic.Uint64
}

// NewPerturber seeds a perturber (seed 0 gets a fixed default).
func NewPerturber(seed uint64) *Perturber {
	p := &Perturber{}
	if seed == 0 {
		seed = 0x2545f4914f6cdd1d
	}
	p.rng.Store(seed)
	return p
}

// Perturb is the hook body: ~1/64 of calls Gosched, ~1/1024 sleep for
// 10µs. Cheap enough to sit on every backoff step, disruptive enough
// to matter at GOMAXPROCS 1 where a spin loop otherwise monopolizes
// the only P.
func (p *Perturber) Perturb() {
	x := xorshiftNext(&p.rng)
	switch {
	case x%1024 == 0:
		time.Sleep(10 * time.Microsecond)
	case x%64 == 0:
		runtime.Gosched()
	}
}

// Install hooks the perturber into every backoff wait point and
// returns a function restoring the previous hook (defer it in tests).
func (p *Perturber) Install() (restore func()) {
	backoff.SetPerturb(p.Perturb)
	return func() { backoff.SetPerturb(nil) }
}
