package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// Hybrid is the runtime-adaptive construction the paper's crossover
// argues for: below the contention crossover a plain lock is strictly
// faster than any delegation scheme, above it delegation wins — so
// instead of picking a side at construction time, Hybrid starts as an
// uncontended lock fast path and promotes itself to a delegation
// backend (HybComb by default, MPServer via WithHybridBackend) when
// the measured contention crosses a threshold, demoting back when the
// delegation side runs quiescent.
//
// Mutual exclusion is one central MCS-style queue lock (the gate). In
// lock mode every handle dispatches its operations under a gate
// acquisition, exactly like spin.LockExecutor over an MCS lock. The
// delegation backend is built eagerly at construction time over a
// gateObject whose DispatchBatch acquires the SAME gate around the
// real object — so whatever mix of modes the handles are in during a
// transition, every dispatch anywhere holds the gate and mutual
// exclusion never has a window. The backend's dispatches are already
// serialized (one combiner at a time; one server goroutine), so the
// gate adds one uncontended acquisition per drained RUN on the
// delegation side — amortized across the run, which is what keeps the
// promoted path within noise of the bare backend.
//
// The contention signal is the one the spin satellite measures: each
// lock-mode acquisition reports whether it found a predecessor in the
// gate queue (a contended acquisition), counted in a padded per-handle
// cell. The controller — piggybacked on operation ticks, guarded by a
// TryLock so it never serializes the data path — promotes when the
// contended fraction over a window of at least HybridWindow operations
// reaches HybridPromote. In delegation mode the signal inverts: the
// gate counts delegated runs and the operations they carried, and the
// controller demotes only after hybridQuietWindows consecutive windows
// whose mean run length stays below HybridDemote with zero submit
// stalls — the hysteresis that keeps a phase-shifting workload from
// thrashing. Baselines reset on every transition, so each mode's
// evidence is collected entirely within that mode.
//
// Transitions preserve the full Handle contract. Handles align to the
// global mode lazily, at the next operation: switching INTO delegation
// needs nothing (every lock-mode operation completed synchronously);
// switching BACK to the lock flushes the handle's inner pipeline
// first, so the handle's outstanding delegated submissions execute
// before its first lock-mode operation — per-handle FIFO holds across
// both edges. Tickets are mode-agnostic because the handle is one
// pipeline over both modes (see hybTransport): a lock-mode submission
// is born complete (the lock cannot defer work), a delegated one is
// owed by the backend's transport, both sit in the same ticket window,
// and Wait redeems either kind no matter how many transitions happened
// in between. ApplyBatch reads the mode once and sends the whole batch
// down one path, so a DispatchBatch run is never split by a transition.
//
// Faults centralize in the hybrid's own latch: both the lock path and
// the gateObject dispatch through it, so a panic in either mode trips
// ONE latch, the backend machinery stays healthy and keeps serving
// (poisoned zeros), and Err/Poison behave exactly like every other
// construction.
type Hybrid struct {
	PoisonLatch
	opts Options
	obj  Object

	inner      hybBackend  // the delegation backend, over gateObject
	innerStats StatsSource // inner's combining counters (nil for mpserver)

	lock     hybLock
	gateNode hybNode // the backend's gate node; its dispatches are serialized

	mode   atomic.Uint32 // hybModeLock or hybModeDeleg
	closed atomic.Bool

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

	hmu   sync.Mutex
	cells []*hybCell // one per handle, appended under hmu
}

const (
	hybModeLock uint32 = iota
	hybModeDeleg
)

// hybridQuietWindows is the demotion hysteresis: this many consecutive
// quiescent evaluation windows before delegation hands back to the
// lock. One contended window resets the count.
const hybridQuietWindows = 3

// hybridTickEvery is how many operations a handle performs between
// controller pokes. The controller itself enforces the HybridWindow
// minimum on the global deltas, so this only bounds reaction latency,
// not window size — 256 keeps the controller's TryLock and counter
// sweeps under 1% of the uncontended lock path.
const hybridTickEvery = 256

// hybCellHot is one handle's lock-side counters: acq counts gate
// acquisitions (= lock-mode dispatch runs), retries the contended ones.
type hybCellHot struct {
	acq     atomic.Uint64
	retries atomic.Uint64
}

// hybCell pads the counters to a whole cache line so the lock-mode hot
// path increments a private line; sums are taken only on the read path
// (Stats, Retries, controller evaluations).
//
//hyblint:padded
type hybCell struct {
	hybCellHot
	_ [pad.CacheLine - unsafe.Sizeof(hybCellHot{})%pad.CacheLine]byte
}

// hybLock is a minimal MCS queue lock with the contended-acquisition
// report the controller needs. It duplicates spin.MCSLock rather than
// importing it because spin already imports core; the ~30 lines are
// the price of keeping the registry's construction in core, where
// ISSUE and registry both want it.
type hybLock struct {
	tail atomic.Pointer[hybNode]
}

type hybNodeHot struct {
	locked atomic.Bool
	next   atomic.Pointer[hybNode]
}

//hyblint:padded
type hybNode struct {
	hybNodeHot
	_ [pad.CacheLine - unsafe.Sizeof(hybNodeHot{})%pad.CacheLine]byte
}

// lock acquires the gate, spinning locally on n; contended reports
// whether the tail swap revealed a predecessor to queue behind.
//
// The node invariant — next is nil and locked is false whenever the
// node is not enqueued — is restored by the contended handoff in
// unlock, so the uncontended acquire is a single tail swap with no
// pointer-store write barrier (this path IS the hybrid's t=1 overhead
// budget against a bare MCS lock).
func (l *hybLock) lock(n *hybNode) (contended bool) {
	pred := l.tail.Swap(n)
	if pred == nil {
		return false
	}
	n.locked.Store(true) // before the link: the releaser may clear it immediately
	pred.next.Store(n)
	var b backoff.Backoff
	for n.locked.Load() {
		b.Wait()
	}
	return true
}

// unlock releases the gate, handing it to the queue successor if any.
func (l *hybLock) unlock(n *hybNode) {
	next := n.next.Load()
	if next == nil {
		if l.tail.CompareAndSwap(n, nil) {
			return
		}
		var b backoff.Backoff
		for next = n.next.Load(); next == nil; next = n.next.Load() {
			b.Wait() // successor is between SWAP and next.Store
		}
	}
	// n is dequeued once the successor is known: no one links behind it
	// again until its owner re-enqueues, so clearing next here (the
	// contended path only) re-establishes the node invariant.
	n.next.Store(nil)
	next.locked.Store(false)
}

// hybGate is the object the delegation backend executes against: the
// real object behind a gate acquisition and the hybrid's own poison
// latch. The backend's dispatch calls are serialized by the backend
// itself, so one shared gateNode suffices; its latch never sees a
// panic (the hybrid latch inside recovers first), keeping the fault in
// exactly one place.
type hybGate struct {
	h *Hybrid
}

// DispatchBatch implements Object.
func (g hybGate) DispatchBatch(reqs []Req, results []uint64) {
	h := g.h
	h.lock.lock(&h.gateNode)
	h.PoisonLatch.Dispatch(h.obj, reqs, results)
	h.lock.unlock(&h.gateNode)
	h.dRuns.Add(1)
	h.dOps.Add(uint64(len(reqs)))
}

func init() {
	MustRegister("hybrid", func(obj Object, o Options) (Executor, error) {
		return NewHybrid(obj, o)
	})
}

// NewHybrid creates the adaptive construction. The delegation backend
// (Options.HybridBackend) is built eagerly so a promotion is a single
// atomic mode flip, never a construction.
func NewHybrid(obj Object, opts Options) (*Hybrid, error) {
	opts.fill()
	h := &Hybrid{opts: opts, obj: obj}
	h.Algo = "hybrid"
	h.Tel = opts.Telemetry
	switch opts.HybridBackend {
	case "hybcomb":
		inner := NewHybComb(hybGate{h}, opts)
		h.inner, h.innerStats = inner, inner
	case "mpserver":
		h.inner = NewMPServer(hybGate{h}, opts)
	default:
		return nil, fmt.Errorf("core: hybrid: backend %q (want \"hybcomb\" or \"mpserver\"): %w",
			opts.HybridBackend, ErrBadOption)
	}
	return h, nil
}

// hybBackend is what the hybrid needs of its delegation construction:
// the executor lifecycle, the backpressure counters its demotion signal
// reads, and a client's transport without a handle around it — the
// hybrid's own handle is the one pipeline over both modes.
type hybBackend interface {
	Executor
	PipelineStats
	newSpec() (PipeSpec, error)
}

// NewHandle implements Executor. The backend transport is created
// eagerly (1:1, same MaxThreads bound) so a promotion never allocates
// on the data path.
func (h *Hybrid) NewHandle() (Handle, error) {
	if err := h.Err(); err != nil {
		return nil, fmt.Errorf("core: hybrid: %w", err)
	}
	if h.closed.Load() {
		return nil, fmt.Errorf("core: hybrid: %w", ErrClosed)
	}
	spec, err := h.inner.newSpec()
	if err != nil {
		return nil, err
	}
	cell := &hybCell{}
	h.hmu.Lock()
	h.cells = append(h.cells, cell)
	h.hmu.Unlock()
	t := &hybTransport{hybTransportHot: hybTransportHot{
		h:          h,
		inner:      spec.Transport,
		innerApply: spec.Apply,
		cell:       cell,
		mode:       h.mode.Load(),
		winTick:    hybridTickEvery,
		rec:        spec.Rec,
	}}
	// The backend's spec with the hybrid's transport in front of its
	// own and the hybrid's latch in place of one that never trips: the
	// in-flight bound, the stall counters and the waiter stay the
	// backend's, so one window serves both modes.
	spec.Transport, spec.Apply, spec.Latch = t, t.apply, &h.PoisonLatch
	t.p = NewPipe(spec)
	return t.p, nil
}

// Close implements Executor: seal this executor, shut the backend
// down (stopping MPServer's server goroutine), and report the hybrid's
// fault state. The backend's own latch never trips, so its Close error
// can only be nil.
func (h *Hybrid) Close() error {
	h.closed.Store(true)
	if err := h.inner.Close(); err != nil {
		return err
	}
	return h.Err()
}

// Transitions implements AdaptiveStats.
func (h *Hybrid) Transitions() (promotions, demotions uint64) {
	return h.promotions.Load(), h.demotions.Load()
}

// Retries implements RetryStats: the cumulative contended gate
// acquisitions across all handles' lock-mode operations.
func (h *Hybrid) Retries() uint64 {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	var r uint64
	for _, c := range h.cells {
		r += c.retries.Load()
	}
	return r
}

// Stats implements StatsSource. Lock-mode acquisitions count as rounds
// of their own (each dispatches its own run, nothing combined), on top
// of the backend's counters. With the hybcomb backend the scalar
// identity rounds + combined == ops therefore still holds; with the
// mpserver backend every delegated run is a round and every delegated
// operation was combined by the server, so — as for any pure server —
// the identity does not (no round has an own operation). Read at
// pipeline quiescence, like every StatsSource.
func (h *Hybrid) Stats() (rounds, combined uint64) {
	h.hmu.Lock()
	for _, c := range h.cells {
		rounds += c.acq.Load()
	}
	h.hmu.Unlock()
	if h.innerStats != nil {
		r, c := h.innerStats.Stats()
		return rounds + r, c
	}
	return rounds + h.dRuns.Load(), h.dOps.Load()
}

// Pipeline implements PipelineStats, forwarding the backend's
// backpressure counters (the hybrid's lock side cannot stall a
// submission — it completes them on the spot).
func (h *Hybrid) Pipeline() (submitStalls, maxDepth uint64) { return h.inner.Pipeline() }

// Telemetry implements TelemetrySource.
func (h *Hybrid) Telemetry() *telemetry.Telemetry { return h.opts.Telemetry }

// lockCounts sums the per-handle lock-side cells.
func (h *Hybrid) lockCounts() (acq, ret uint64) {
	h.hmu.Lock()
	defer h.hmu.Unlock()
	for _, c := range h.cells {
		acq += c.acq.Load()
		ret += c.retries.Load()
	}
	return acq, ret
}

// maybeAdapt is the controller: called from handle ticks, it evaluates
// the current mode's signal once at least HybridWindow operations have
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
	win := uint64(h.opts.HybridWindow)
	if h.mode.Load() == hybModeLock {
		acq, ret := h.lockCounts()
		dA, dR := acq-h.ctl.lastAcq, ret-h.ctl.lastRet
		if dA < win {
			return
		}
		h.ctl.lastAcq, h.ctl.lastRet = acq, ret
		if float64(dR) >= h.opts.HybridPromote*float64(dA) {
			h.promote()
		}
		return
	}
	runs, ops := h.dRuns.Load(), h.dOps.Load()
	stalls, _ := h.inner.Pipeline()
	dRuns, dOps, dStalls := runs-h.ctl.lastRuns, ops-h.ctl.lastOps, stalls-h.ctl.lastStalls
	if dOps < win {
		return
	}
	h.ctl.lastRuns, h.ctl.lastOps, h.ctl.lastStalls = runs, ops, stalls
	if dRuns > 0 && float64(dOps) < h.opts.HybridDemote*float64(dRuns) && dStalls == 0 {
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
	h.opts.Telemetry.NotePromotion()
}

// demote flips delegation → lock and rebases the lock-side baselines.
// Same locking contract as promote.
func (h *Hybrid) demote() {
	if !h.mode.CompareAndSwap(hybModeDeleg, hybModeLock) {
		return
	}
	h.ctl.lastAcq, h.ctl.lastRet = h.lockCounts()
	h.ctl.quiet = 0
	h.demotions.Add(1)
	h.opts.Telemetry.NoteDemotion()
}

// hybTransport is one thread's path through whichever mode is current:
// in lock mode every operation runs under a gate acquisition and
// completes on the spot, in delegation mode it travels the backend's
// transport. Completions are only ever owed by the backend, so Next is
// the backend's, and the handle's one window holds both kinds of ticket
// — a ticket redeems the same however many transitions happened since.
type hybTransportHot struct {
	h          *Hybrid
	p          *Pipe // the handle over this transport; align flushes it
	inner      Transport
	innerApply func(op, arg uint64) uint64
	node       hybNode // this handle's gate node (lock mode)
	cell       *hybCell

	mode    uint32 // last observed global mode; see align
	winTick uint32 // countdown to the next controller poke

	rec    *telemetry.Recorder // lock-mode run lengths (the backend records its own)
	one    [1]Req              // scalar lock-path scratch
	oneRet [1]uint64
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

// align observes the global mode and reconciles the handle with it.
// Entering delegation needs nothing — every lock-mode operation
// completed synchronously. Leaving it flushes the handle's window
// first, so delegated submissions still in flight execute before the
// first lock-mode operation: per-handle FIFO holds across the switch
// (Flush banks un-waited tickets, which stay redeemable).
func (hd *hybTransport) align() uint32 {
	m := hd.h.mode.Load()
	if m != hd.mode {
		if hd.mode == hybModeDeleg {
			hd.p.Flush()
		}
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

// lockDispatch executes one run under a gate acquisition, feeding the
// acquisition counters and the controller tick.
func (hd *hybTransport) lockDispatch(reqs []Req, results []uint64) {
	h := hd.h
	if h.lock.lock(&hd.node) {
		hd.cell.retries.Add(1)
		h.opts.Telemetry.NoteLockRetries(1)
	}
	h.PoisonLatch.Dispatch(h.obj, reqs, results)
	h.lock.unlock(&hd.node)
	hd.cell.acq.Add(1)
	hd.tick()
}

// lockApply is the scalar lock-mode critical section, recorded exactly
// like spin.LockExecutor's: one length-1 run per dispatch.
func (hd *hybTransport) lockApply(op, arg uint64) uint64 {
	hd.one[0] = Req{Op: op, Arg: arg}
	hd.lockDispatch(hd.one[:], hd.oneRet[:])
	hd.rec.RunLen(1)
	return hd.oneRet[0]
}

func (hd *hybTransport) apply(op, arg uint64) uint64 {
	if hd.align() == hybModeDeleg {
		v := hd.innerApply(op, arg)
		hd.tick()
		return v
	}
	return hd.lockApply(op, arg)
}

// Ship implements Transport. Lock mode completes on the spot (an
// acquisition cannot be deferred); delegation mode is the backend's
// Ship.
func (hd *hybTransport) Ship(op, arg uint64) (uint64, bool) {
	if hd.align() == hybModeDeleg {
		v, done := hd.inner.Ship(op, arg)
		hd.tick()
		return v, done
	}
	return hd.lockApply(op, arg), true
}

// Next implements Transport: whatever is owed — including submissions
// from before a demotion the handle has not aligned to yet — is owed
// by the backend.
func (hd *hybTransport) Next(block bool) (uint64, bool) { return hd.inner.Next(block) }

// Batch implements Transport. The mode is read once at entry and the
// whole batch goes down that path — one gate acquisition, or the
// backend's batch strategy — so a dispatch run is never split by a
// transition happening mid-batch.
func (hd *hybTransport) Batch(p *Pipe, reqs []Req, results []uint64) {
	if hd.align() == hybModeDeleg {
		hd.inner.Batch(p, reqs, results)
		hd.tick()
		return
	}
	hd.lockDispatch(reqs, results)
	hd.rec.RunLen(len(reqs))
}
