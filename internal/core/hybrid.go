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
// The controller's evidence is the lock executor's: each acquisition
// reports whether it found a predecessor in the gate queue (a contended
// acquisition), counted in the handle's counter cell. Every
// hybridTickEvery operations a handle pokes the controller, guarded by
// a TryLock so it never serializes the data path. Under that lock the
// handle adds its own rounds, combined, retries and stalls since its
// last such poke into the controller's window (ctl.win), reading its own
// plain counts. The controller promotes when the contended fraction over
// a window of at least hybridWindow served requests reaches
// hybridPromote. In delegation mode the evidence inverts: the backend's
// combiners count their rounds and the requests they combined for other
// threads in the same cells, and the controller demotes only after
// hybridQuietWindows consecutive windows whose combining rate —
// requests served per round, a round's own run counted once — stays
// below hybridDemote with zero submit stalls, the hysteresis that keeps
// a phase-shifting workload from thrashing. The window is zeroed when
// it closes and at every transition, so it holds what the handles'
// pokes added since: each handle's counts since its previous poke,
// which may straddle the transition.
//
// Transitions preserve the full Handle contract. Both modes defer: a
// submission joins the handle's pending run, and a run reads the mode
// once, when it is handed over, and goes down one path — under one gate
// acquisition, or as one chain cell of the backend, as on bare
// ccsynch — so a DispatchBatch run is never split by a transition.
// Either path completes the run before it returns and never owes a
// completion, so neither edge has anything to settle. Tickets are
// mode-agnostic because the handle is one pipeline over both modes (see
// hybTransport): every submission waits in the same pending run and
// ticket window, and Wait redeems it no matter how many transitions
// happened in between.
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

	// ctl is the adaptive controller's state, touched only under ctlMu
	// (acquired with TryLock from the tick path, so an evaluation in
	// progress makes concurrent ticks skip, not queue). Every tick
	// writes ctlMu, so it sits a line away from mode (TestHybridLayout).
	_     pad.Line
	ctlMu sync.Mutex
	ctl   struct {
		win   evidence  // the open window: what the handles' ticks added since it opened
		quiet int       // consecutive quiescent windows (hysteresis)
		into  [2]uint64 // transitions into each mode: [hybModeDeleg] promotions, [hybModeLock] demotions
	}
}

// evidence is the part of the handles' counts the controller judges:
// rounds, requests combined for others, retries and submit stalls.
type evidence struct {
	rounds, combined, retries, stalls uint64
}

const (
	hybModeLock uint32 = iota
	hybModeDeleg
)

// The controller's thresholds. hybridPromote is the fraction of lock
// acquisitions that queued behind a predecessor (retries per
// acquisition: the MCS gate counts exactly 1 per queued acquisition)
// at which the lock side promotes;
// hybridDemote the combining rate — requests served per combining
// round, the round's own run counted once — below which a delegation
// window counts as quiescent; hybridWindow the minimum number of
// requests served (rounds plus requests combined for others) between
// two evaluations in either mode — smaller windows react faster and
// thrash easier, 1024 rides out sub-window bursts.
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
// minimum on the window, so this only bounds reaction latency, not
// window size — 256 keeps the controller's TryLock under 1% of the
// uncontended lock path.
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
	p := h.handle(spec)
	t.cnt, inner.cnt = &p.cnt, &p.cnt
	return p, nil
}

// Transitions implements AdaptiveStats.
func (h *Hybrid) Transitions() (promotions, demotions uint64) {
	h.ctlMu.Lock()
	defer h.ctlMu.Unlock()
	return h.ctl.into[hybModeDeleg], h.ctl.into[hybModeLock]
}

// adapt is the controller, run by a tick under ctlMu once it has added
// its handle's counts to the window: it evaluates the current mode's
// evidence once the window has served at least h.window requests,
// closes the window, and flips the mode on a threshold crossing. A
// window counts rounds plus requests combined for others: each round's
// own run once, every request another round served for it once.
func (h *Hybrid) adapt() {
	w := h.ctl.win
	served := w.rounds + w.combined
	if served < h.window || h.Poisoned() {
		return
	}
	h.ctl.win = evidence{}
	if h.mode.Load() == hybModeLock {
		if float64(w.retries) >= h.promoteAt*float64(w.rounds) {
			h.flip(hybModeLock, hybModeDeleg)
		}
		return
	}
	if float64(served) < hybridDemote*float64(w.rounds) && w.stalls == 0 {
		if h.ctl.quiet++; h.ctl.quiet >= hybridQuietWindows {
			h.flip(hybModeDeleg, hybModeLock)
		}
		return
	}
	h.ctl.quiet = 0
}

// flip is the one transition edge, from → to: it zeroes the window, so
// the new mode's evidence starts from nothing, and counts the
// transition. Callers hold ctlMu (the controller, or a transition test
// forcing the edge); the CAS makes a forced edge idempotent.
func (h *Hybrid) flip(from, to uint32) {
	if !h.mode.CompareAndSwap(from, to) {
		return
	}
	h.ctl.win = evidence{}
	h.ctl.quiet = 0
	h.ctl.into[to]++
}

// hybTransport is one thread's path through whichever mode is current:
// in lock mode it is a lock client, in delegation mode it travels the
// backend's transport. Its pipeline defers in both, so a window is one
// gate acquisition or one chain cell, whichever mode is current when
// the window is demanded; neither side ever owes a completion, and the
// handle's one window holds every ticket, which redeems the same
// however many transitions happened since.
type hybTransportHot struct {
	lockClientHot // lock mode
	h             *Hybrid
	inner         *ccTransport // delegation mode

	seen    evidence // the handle's counts as of its last tick that took ctlMu
	winTick uint32   // countdown to the next controller poke
}

// hybTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type hybTransport struct {
	hybTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(hybTransportHot{})%pad.CacheLine]byte
}

// tick counts n operations towards the next controller poke, one every
// hybridTickEvery operations. A poke that takes ctlMu adds the handle's
// counts since its last such poke to the window — its own plain words,
// read by their writer — and runs the controller; one that finds the
// controller busy skips, and its counts wait for the next.
func (hd *hybTransport) tick(n int) {
	if uint32(n) < hd.winTick {
		hd.winTick -= uint32(n)
		return
	}
	hd.winTick = hybridTickEvery
	h := hd.h
	if !h.ctlMu.TryLock() {
		return
	}
	c, w := hd.cnt, &h.ctl.win
	now := evidence{c.rounds, c.combined, c.retries, c.stalls}
	w.rounds += now.rounds - hd.seen.rounds
	w.combined += now.combined - hd.seen.combined
	w.retries += now.retries - hd.seen.retries
	w.stalls += now.stalls - hd.seen.stalls
	hd.seen = now
	h.adapt()
	h.ctlMu.Unlock()
}

func (hd *hybTransport) apply(op, arg uint64) uint64 {
	var v uint64
	if hd.h.mode.Load() == hybModeDeleg {
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
	if hd.h.mode.Load() == hybModeDeleg {
		hd.inner.Run(reqs, rets, room)
	} else {
		hd.lockClientHot.Run(reqs, rets, room)
	}
	hd.tick(len(reqs))
	return 0
}
