package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/pad"
	"hybsync/internal/spin"
)

// Hybrid is the runtime-adaptive construction the paper's crossover
// argues for: below the contention crossover a plain lock is strictly
// faster than any delegation scheme, above it delegation wins — so
// instead of picking a side at construction time, Hybrid starts as an
// uncontended lock fast path and promotes itself to delegation
// (HybComb) when the measured contention crosses a threshold, demoting
// back when the delegation side runs quiescent.
//
// The lock mode IS the lock executor: Hybrid embeds a LockExecutor over
// one MCS lock (the gate), and in lock mode every handle is a lock
// client of it — the same acquire, dispatch, unlock, count as mcs-lock.
// The delegation backend is built eagerly at construction time over a
// hybGate whose DispatchBatch acquires the SAME gate around the real
// object — so whatever mix of modes the handles are in during a
// transition, every dispatch anywhere holds the gate and mutual
// exclusion never has a window. The backend's dispatches are already
// serialized (one combiner at a time), so the gate adds one uncontended
// acquisition per drained RUN on the delegation side — amortized across
// the run, which is what keeps the promoted path within noise of the
// bare backend.
//
// The contention signal is the lock executor's: each acquisition
// reports whether it found a predecessor in the gate queue (a contended
// acquisition), counted in the handle's padded retry cell. The
// controller — piggybacked on operation ticks, guarded by a TryLock so
// it never serializes the data path — promotes when the contended
// fraction over a window of at least hybridWindow operations reaches
// hybridPromote. In delegation mode the signal inverts: the gate counts
// delegated runs and the operations they carried, and the controller
// demotes only after hybridQuietWindows consecutive windows whose mean
// run length stays below hybridDemote with zero submit stalls — the
// hysteresis that keeps a phase-shifting workload from thrashing.
// Baselines reset on every transition, so each mode's evidence is
// collected entirely within that mode.
//
// Transitions preserve the full Handle contract. Handles align to the
// global mode lazily, at the next operation, and flush their window on
// BOTH edges: switching INTO delegation executes the lock side's
// pending run before the first delegated ship, switching BACK to the
// lock settles the handle's outstanding delegated submissions before
// its first lock-mode operation — per-handle FIFO holds across both.
// Tickets are mode-agnostic because the handle is one pipeline over
// both modes (see hybTransport): a lock-mode submission waits in the
// pipeline's deferred run (one acquisition per demand, exactly as on
// mcs-lock), a delegated one is owed by the backend's transport, both
// sit in the same ticket window, and Wait redeems either kind no matter
// how many transitions happened in between. A batch joins the pending
// run if there is one, else reads the mode once; either way it goes
// down one path, so a DispatchBatch run is never split by a transition.
//
// Faults centralize in the one latch of the embedded shell: both the
// lock clients and the hybGate dispatch through it, so a panic in
// either mode trips ONE latch, the backend machinery stays healthy and
// keeps serving (poisoned zeros), and Err/Poison behave exactly like
// every other construction.
type Hybrid struct {
	LockExecutor // lock mode, and the shell

	inner *HybComb        // delegation mode, over hybGate
	gate  *spin.MCSHandle // the backend's place in the gate queue; its dispatches are serialized

	// The controller's thresholds (see the hybrid* constants); fields so
	// that in-package tests can move them before any handle exists.
	promoteAt, demoteBelow float64
	window                 uint64

	mode atomic.Uint32 // hybModeLock or hybModeDeleg

	// Delegated-run accounting, written by the serialized gate dispatch:
	// the demotion signal's numerator and denominator.
	dRuns atomic.Uint64
	dOps  atomic.Uint64

	promotions atomic.Uint64
	demotions  atomic.Uint64

	// ctl is the adaptive controller's state, touched only under ctlMu
	// (acquired with TryLock from the tick path, so an evaluation in
	// progress makes concurrent ticks skip, not queue).
	ctlMu sync.Mutex
	ctl   struct {
		lastAcq, lastRet  uint64 // lock-side baselines
		lastRuns, lastOps uint64 // delegation-side baselines
		lastStalls        uint64
		quiet             int // consecutive quiescent windows (hysteresis)
	}
}

const (
	hybModeLock uint32 = iota
	hybModeDeleg
)

// The controller's thresholds. hybridPromote is the contended-
// acquisition rate (retry steps per lock acquisition, so roughly the
// fraction of acquisitions that queued) at which the lock side promotes;
// hybridDemote the mean dispatch-run length below which a delegation
// window counts as quiescent; hybridWindow the minimum number of
// operations between two evaluations of either signal — smaller windows
// react faster and thrash easier, 1024 rides out sub-window bursts.
const (
	hybridPromote = 0.5
	hybridDemote  = 1.25
	hybridWindow  = 1024
)

// hybridQuietWindows is the demotion hysteresis: this many consecutive
// quiescent evaluation windows before delegation hands back to the
// lock. One contended window resets the count.
const hybridQuietWindows = 3

// hybridTickEvery is how many operations a handle performs between
// controller pokes. The controller itself enforces the hybridWindow
// minimum on the global deltas, so this only bounds reaction latency,
// not window size — 256 keeps the controller's TryLock and counter
// sweeps under 1% of the uncontended lock path.
const hybridTickEvery = 256

// hybGate is the object the delegation backend executes against: the
// real object behind a gate acquisition and the hybrid's own poison
// latch. The backend's latch never sees a panic (the hybrid latch
// inside recovers first), keeping the fault in exactly one place.
type hybGate struct {
	h *Hybrid
}

// DispatchBatch implements Object.
func (g hybGate) DispatchBatch(reqs []Req, results []uint64) {
	h := g.h
	h.gate.Lock()
	h.PoisonLatch.Dispatch(h.obj, reqs, results)
	h.gate.Unlock()
	h.dRuns.Add(1)
	h.dOps.Add(uint64(len(reqs)))
}

// NewHybrid creates the adaptive construction. The delegation backend
// is built eagerly so a promotion is a single atomic mode flip, never a
// construction.
func NewHybrid(obj Object, opts Options) *Hybrid {
	l := &spin.MCSLock{}
	h := &Hybrid{gate: l.NewMCSHandle(), promoteAt: hybridPromote, demoteBelow: hybridDemote, window: hybridWindow}
	h.obj, h.factory = obj, func() spin.Lock { return l.NewMCSHandle() }
	h.Init("hybrid", opts)
	h.inner = NewHybComb(hybGate{h}, h.Opts)
	return h
}

// NewHandle implements Executor. The backend transport is created
// eagerly (1:1, same MaxThreads bound) so a promotion never allocates
// on the data path.
func (h *Hybrid) NewHandle() (Handle, error) {
	if _, err := h.Admit(); err != nil {
		return nil, err
	}
	inner, err := h.inner.newTransport()
	if err != nil {
		return nil, err
	}
	t := &hybTransport{hybTransportHot: hybTransportHot{
		lockClientHot: h.newClient(),
		h:             h,
		inner:         inner,
		mode:          h.mode.Load(),
		winTick:       hybridTickEvery,
	}}
	// The backend's spec with the hybrid's transport in front of its
	// own and the hybrid's latch in place of one that never trips: the
	// in-flight bound, the stall counters and the waiter stay the
	// backend's, so one window serves both modes.
	spec := inner.spec()
	spec.Transport, spec.Apply, spec.Latch = t, t.apply, &h.PoisonLatch
	t.p = NewPipe(spec)
	return t.p, nil
}

// Close implements Executor: seal this executor, seal the backend, and
// report the hybrid's fault state. The backend's own latch never trips,
// so its Close error can only be nil.
func (h *Hybrid) Close() error {
	h.Seal()
	if err := h.inner.Close(); err != nil {
		return err
	}
	return h.Err()
}

// Transitions implements AdaptiveStats.
func (h *Hybrid) Transitions() (promotions, demotions uint64) {
	return h.promotions.Load(), h.demotions.Load()
}

// Stats implements StatsSource. Lock-mode acquisitions count as rounds
// of their own (each dispatches its own run, nothing combined), on top
// of the backend's counters, so under blocking Apply the scalar
// identity rounds + combined == ops holds across transitions; a
// pipelined window's lock-side run is one round of several own
// operations, as on LockExecutor. Read at pipeline quiescence, like
// every StatsSource.
func (h *Hybrid) Stats() (rounds, combined uint64) {
	acq, _ := h.counts()
	r, c := h.inner.Stats()
	return acq + r, c
}

// Pipeline implements PipelineStats with the backend's backpressure
// counters, which every handle's one window feeds in both modes (see
// NewHandle) — the lock clients' per-handle ones stay zero.
func (h *Hybrid) Pipeline() (submitStalls, maxDepth uint64) { return h.inner.Pipeline() }

// maybeAdapt is the controller: called from handle ticks, it evaluates
// the current mode's signal once at least h.window operations have
// accumulated since the last evaluation, and flips the mode on a
// threshold crossing. TryLock keeps it off the data path — a tick that
// finds an evaluation in progress just skips.
func (h *Hybrid) maybeAdapt() {
	if !h.ctlMu.TryLock() {
		return
	}
	defer h.ctlMu.Unlock()
	if h.Poisoned() {
		return
	}
	if h.mode.Load() == hybModeLock {
		acq, ret := h.counts()
		dA, dR := acq-h.ctl.lastAcq, ret-h.ctl.lastRet
		if dA < h.window {
			return
		}
		h.ctl.lastAcq, h.ctl.lastRet = acq, ret
		if float64(dR) >= h.promoteAt*float64(dA) {
			h.promote()
		}
		return
	}
	runs, ops := h.dRuns.Load(), h.dOps.Load()
	stalls, _ := h.inner.Pipeline()
	dRuns, dOps, dStalls := runs-h.ctl.lastRuns, ops-h.ctl.lastOps, stalls-h.ctl.lastStalls
	if dOps < h.window {
		return
	}
	h.ctl.lastRuns, h.ctl.lastOps, h.ctl.lastStalls = runs, ops, stalls
	if dRuns > 0 && float64(dOps) < h.demoteBelow*float64(dRuns) && dStalls == 0 {
		h.ctl.quiet++
		if h.ctl.quiet >= hybridQuietWindows {
			h.demote()
		}
		return
	}
	h.ctl.quiet = 0
}

// promote flips lock → delegation and rebases the delegation-side
// baselines, so demotion evidence starts from zero. Callers hold
// ctlMu (the controller, or a transition test forcing the edge); the
// CAS makes a forced edge idempotent.
func (h *Hybrid) promote() {
	if !h.mode.CompareAndSwap(hybModeLock, hybModeDeleg) {
		return
	}
	h.ctl.lastRuns, h.ctl.lastOps = h.dRuns.Load(), h.dOps.Load()
	h.ctl.lastStalls, _ = h.inner.Pipeline()
	h.ctl.quiet = 0
	h.promotions.Add(1)
	h.Opts.Telemetry.NotePromotion()
}

// demote flips delegation → lock and rebases the lock-side baselines.
// Same locking contract as promote.
func (h *Hybrid) demote() {
	if !h.mode.CompareAndSwap(hybModeDeleg, hybModeLock) {
		return
	}
	h.ctl.lastAcq, h.ctl.lastRet = h.counts()
	h.ctl.quiet = 0
	h.demotions.Add(1)
	h.Opts.Telemetry.NoteDemotion()
}

// hybTransport is one thread's path through whichever mode is current:
// in lock mode it is a lock client — submissions defer into the
// pipeline's run, executed under one gate acquisition per demand — in
// delegation mode it travels the backend's transport, shipping each
// submission on the spot rather than deferring it: the delegated run
// lengths are the demotion signal, and they must measure combining
// across threads, not one client's window. align keeps at most one side
// owing at a time, and the handle's one window holds both kinds of
// ticket — a ticket redeems the same however many transitions happened
// since.
type hybTransportHot struct {
	lockClientHot // lock mode
	h             *Hybrid
	p             *Pipe        // the handle over this transport; align flushes it
	inner         *hcTransport // delegation mode

	mode    uint32 // last observed global mode; see align
	winTick uint32 // countdown to the next controller poke
}

// hybTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type hybTransport struct {
	hybTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(hybTransportHot{})%pad.CacheLine]byte
}

// align observes the global mode and reconciles the handle with it:
// on either edge it flushes the handle's window first, so whatever the
// side being left still owes — the lock client's pending run, delegated
// submissions in flight — executes before the first operation of the
// new mode: per-handle FIFO holds across the switch (Flush banks
// un-waited tickets, which stay redeemable).
func (hd *hybTransport) align() uint32 {
	m := hd.h.mode.Load()
	if m != hd.mode {
		hd.p.Flush()
		hd.mode = m
	}
	return m
}

// tick pokes the controller every hybridTickEvery operations.
func (hd *hybTransport) tick() {
	hd.winTick--
	if hd.winTick == 0 {
		hd.winTick = hybridTickEvery
		hd.h.maybeAdapt()
	}
}

func (hd *hybTransport) apply(op, arg uint64) uint64 {
	var v uint64
	if hd.align() == hybModeDeleg {
		v = hd.inner.apply(op, arg)
	} else {
		v = hd.lockClientHot.apply(op, arg)
	}
	hd.tick()
	return v
}

// Ship implements Transport: deferred into the pipeline's run, which
// the lock client's Run executes, or the backend's eager ship.
func (hd *hybTransport) Ship(op, arg uint64) (v uint64, how Shipped) {
	how = ShipDeferred
	if hd.align() == hybModeDeleg {
		v, how = hd.inner.shipNow(op, arg)
	}
	hd.tick()
	return v, how
}

// Next implements Transport: only the backend ever owes a completion.
func (hd *hybTransport) Next(block bool) (uint64, bool) { return hd.inner.Next(block) }

// Batch implements Transport. The mode is read once at entry and the
// whole batch goes down that path — the lock client's batch strategy
// (one gate acquisition), or the backend's — so a dispatch run is never
// split by a transition happening mid-batch.
func (hd *hybTransport) Batch(p *Pipe, reqs []Req, done []uint64) (ticketed int) {
	if hd.align() == hybModeDeleg {
		ticketed = hd.inner.Batch(p, reqs, done)
	} else {
		ticketed = hd.lockClientHot.Batch(p, reqs, done)
	}
	hd.tick()
	return ticketed
}
