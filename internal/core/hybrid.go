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
// (CC-Synch) when the measured contention crosses a threshold, demoting
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
// acquisition per combined RUN on the delegation side, amortized across
// the run. With two clients, whose rounds are short, that acquisition is
// most of what the promoted path still pays over the bare backend
// (ROADMAP direction E).
//
// The contention signal is the lock executor's: each acquisition
// reports whether it found a predecessor in the gate queue (a contended
// acquisition), counted in the handle's counter cell. The
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
// global mode lazily, at the next run their pipeline hands over (or the
// next blocking Apply), and per-handle FIFO holds across both edges: a
// lock-mode handle's pending run executes on whichever side is current
// when it is demanded, and a delegated submission completes before its
// Submit returns — a CC-Synch run is served on the spot and never owed —
// so switching BACK to the lock has nothing to settle. Tickets are
// mode-agnostic because the handle is one pipeline over both modes (see
// hybTransport): a lock-mode submission waits in the pipeline's deferred
// run (one acquisition per demand, exactly as on mcs-lock), a delegated
// one is banked in the same ticket window, and Wait redeems either kind
// no matter how many transitions happened in between. A run reads the
// mode once and goes down one path, so a DispatchBatch run is never
// split by a transition.
//
// Faults centralize in the one latch of the embedded shell: both the
// lock clients and the hybGate dispatch through it, so a panic in
// either mode trips ONE latch, the backend machinery stays healthy and
// keeps serving (poisoned zeros), and Err/Poison behave exactly like
// every other construction. Close is the shell's: it seals the hybrid,
// whose admission every handle passes before the backend's, and the
// backend owns nothing to release.
type Hybrid struct {
	LockExecutor // lock mode, and the shell

	inner *CCSynch        // delegation mode, over hybGate
	gate  *spin.MCSHandle // the backend's place in the gate queue; its dispatches are serialized

	// The controller's promotion threshold and window (see the hybrid*
	// constants); fields so that in-package tests can move them before
	// any handle exists.
	promoteAt float64
	window    uint64

	mode atomic.Uint32 // hybModeLock or hybModeDeleg, loaded by every operation

	promotions atomic.Uint64
	demotions  atomic.Uint64

	// Delegated-run accounting, written by the serialized gate dispatch:
	// the demotion signal's numerator and denominator. Each delegated run
	// writes them, so they sit a line away from mode, which every handle
	// loads on every operation (TestHybridLayout).
	_     pad.Line
	dRuns atomic.Uint64
	dOps  atomic.Uint64
	_     pad.Line

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

// The controller's thresholds. hybridPromote is the fraction of lock
// acquisitions that queued behind a predecessor (retries per
// acquisition: the MCS gate counts exactly 1 per queued acquisition)
// at which the lock side promotes;
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
	h := &Hybrid{promoteAt: hybridPromote, window: hybridWindow}
	h.obj, h.lock = obj, &spin.MCSLock{}
	h.gate = h.lock.NewMCSHandle()
	h.init("hybrid", opts)
	h.inner = NewCCSynch(hybGate{h}, h.Opts)
	return h
}

// NewHandle implements Executor. The backend transport is created
// eagerly (1:1, same MaxThreads bound) so a promotion never allocates
// on the data path.
func (h *Hybrid) NewHandle() (Handle, error) {
	if _, err := h.admit(); err != nil {
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
		winTick:       hybridTickEvery,
	}}
	// The backend's spec with the hybrid's transport in front of its
	// own and the hybrid's latch in place of one that never trips: the
	// in-flight bound and the waiter stay the backend's, so one window
	// serves both modes. Both sides count in the one cell of that window:
	// lock acquisitions and combining rounds alike are rounds.
	spec := inner.spec()
	spec.Transport, spec.Apply, spec.Latch = t, t.apply, &h.PoisonLatch
	t.p = h.handle(spec)
	t.cnt, inner.cnt = &t.p.cnt, &t.p.cnt
	return t.p, nil
}

// Transitions implements AdaptiveStats.
func (h *Hybrid) Transitions() (promotions, demotions uint64) {
	return h.promotions.Load(), h.demotions.Load()
}

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
		t := h.totals()
		dA, dR := t.rounds-h.ctl.lastAcq, t.retries-h.ctl.lastRet
		if dA < h.window {
			return
		}
		h.ctl.lastAcq, h.ctl.lastRet = t.rounds, t.retries
		if float64(dR) >= h.promoteAt*float64(dA) {
			h.promote()
		}
		return
	}
	runs, ops, stalls := h.dRuns.Load(), h.dOps.Load(), h.totals().stalls
	dRuns, dOps, dStalls := runs-h.ctl.lastRuns, ops-h.ctl.lastOps, stalls-h.ctl.lastStalls
	if dOps < h.window {
		return
	}
	h.ctl.lastRuns, h.ctl.lastOps, h.ctl.lastStalls = runs, ops, stalls
	if dRuns > 0 && float64(dOps) < hybridDemote*float64(dRuns) && dStalls == 0 {
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
	h.ctl.lastRuns, h.ctl.lastOps, h.ctl.lastStalls = h.dRuns.Load(), h.dOps.Load(), h.totals().stalls
	h.ctl.quiet = 0
	bump(&h.promotions, 1)
}

// demote flips delegation → lock and rebases the lock-side baselines.
// Same locking contract as promote.
func (h *Hybrid) demote() {
	if !h.mode.CompareAndSwap(hybModeDeleg, hybModeLock) {
		return
	}
	t := h.totals()
	h.ctl.lastAcq, h.ctl.lastRet = t.rounds, t.retries
	h.ctl.quiet = 0
	bump(&h.demotions, 1)
}

// hybTransport is one thread's path through whichever mode is current:
// in lock mode it is a lock client — submissions defer into the
// pipeline's run, executed under one gate acquisition per demand — in
// delegation mode it travels the backend's transport, and its pipeline
// is eager, handing each submission over on the spot rather than
// deferring it: the delegated run lengths are the demotion signal, and
// they must measure combining across threads, not one client's window.
// Neither side ever owes a completion, and the handle's one window
// holds both kinds of ticket — a ticket redeems the same however many
// transitions happened since.
type hybTransportHot struct {
	lockClientHot // lock mode
	h             *Hybrid
	p             *Pipe        // the handle over this transport; align sets its policy
	inner         *ccTransport // delegation mode

	mode    uint32 // last observed global mode, lock (deferring) at first; see align
	winTick uint32 // countdown to the next controller poke
}

// hybTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type hybTransport struct {
	hybTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(hybTransportHot{})%pad.CacheLine]byte
}

// align observes the global mode and reconciles the handle with it: the
// pipeline defers in lock mode and hands each submission over at once in
// delegation mode. Neither edge has anything to settle: neither side
// ever owes, and a pending run the lock side left is the run being
// handed over.
func (hd *hybTransport) align() uint32 {
	m := hd.h.mode.Load()
	if m != hd.mode {
		hd.mode = m
		hd.p.eager = m == hybModeDeleg
	}
	return m
}

// tick counts n operations towards the next controller poke, one every
// hybridTickEvery operations.
func (hd *hybTransport) tick(n int) {
	if uint32(n) < hd.winTick {
		hd.winTick -= uint32(n)
		return
	}
	hd.winTick = hybridTickEvery
	hd.h.maybeAdapt()
}

func (hd *hybTransport) apply(op, arg uint64) uint64 {
	var v uint64
	if hd.align() == hybModeDeleg {
		v = hd.inner.apply(op, arg)
	} else {
		v = hd.lockClientHot.apply(op, arg)
	}
	hd.tick(1)
	return v
}

// Run implements Transport. The mode is read once and the run goes down
// that path — one gate acquisition, or one chain cell of the backend —
// so a dispatch run is never split by a transition happening mid-run.
// Both complete the run on the spot: nothing is owed.
func (hd *hybTransport) Run(reqs []Req, rets []uint64, room int) (owed int) {
	if hd.align() == hybModeDeleg {
		hd.inner.Run(reqs, rets, room)
	} else {
		hd.lockClientHot.Run(reqs, rets, room)
	}
	hd.tick(len(reqs))
	return 0
}
