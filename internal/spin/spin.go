// Package spin provides classic spin-lock algorithms — test-and-set,
// test-and-test-and-set, ticket, MCS and CLH queue locks — plus an
// adapter that turns any of them into a core.Executor. They are the
// classic-lock baselines of the paper's Section 3: queue locks achieve
// O(1) RMRs per acquisition through local spinning, but unlike the
// server/combiner approaches they still move the protected data to the
// acquiring core on every critical section.
package spin

import (
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// The lock-based executors self-register with the core registry so
// hybsync.New can build them by name. Queue locks (mcs, clh) hand each
// executor handle its own node-carrying lock handle over one shared
// lock; the centralized locks (tas, ttas, ticket) share one instance.
func init() {
	register := func(name string, mk func() func() Lock) {
		core.MustRegister(name, func(obj core.Object, o core.Options) (core.Executor, error) {
			e := NewLockExecutor(obj, mk())
			e.Algo = name
			e.tel = o.Telemetry
			e.Tel = o.Telemetry
			return e, nil
		})
	}
	register("tas-lock", func() func() Lock { l := &TASLock{}; return func() Lock { return l } })
	register("ttas-lock", func() func() Lock { l := &TTASLock{}; return func() Lock { return l } })
	register("ticket-lock", func() func() Lock { l := &TicketLock{}; return func() Lock { return l } })
	register("mcs-lock", func() func() Lock { l := &MCSLock{}; return func() Lock { return l.NewMCSHandle() } })
	register("clh-lock", func() func() Lock { l := NewCLHLock(); return func() Lock { return l.NewCLHHandle() } })
}

// Lock is a mutual-exclusion lock. Locks in this package are not
// reentrant.
type Lock interface {
	Lock()
	Unlock()
}

// CountingLock is a Lock whose acquisition also reports contention.
// LockCounted acquires the lock and returns the number of contended
// steps the acquisition took: 0 for an acquisition that succeeded on
// the first attempt, and otherwise a lock-specific positive count
// (failed swaps for tas/ttas, waiters ahead at arrival for ticket, 1
// for the queue locks, which learn only "had a predecessor"). The
// count feeds the per-handle retry cells below and, through them, the
// adaptive hybrid executor's promotion signal. All locks in this
// package implement it.
type CountingLock interface {
	Lock
	LockCounted() uint64
}

// TASLock is a plain test-and-set lock: every acquisition attempt is a
// remote atomic, so contention floods the interconnect.
//
//hyblint:padded
type TASLock struct {
	v atomic.Bool
	_ [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TASLock) Lock() { l.LockCounted() }

// LockCounted implements CountingLock, counting failed swaps.
func (l *TASLock) LockCounted() uint64 {
	var r uint64
	var b backoff.Backoff
	for l.v.Swap(true) {
		r++
		b.Wait()
	}
	return r
}

// Unlock implements Lock.
func (l *TASLock) Unlock() { l.v.Store(false) }

// TTASLock spins on a local read and only attempts the swap when the
// lock looks free, eliminating most remote atomics.
//
//hyblint:padded
type TTASLock struct {
	v atomic.Bool
	_ [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TTASLock) Lock() { l.LockCounted() }

// LockCounted implements CountingLock, counting each pass that found
// the lock held (the read-spin entry) or lost the swap race.
func (l *TTASLock) LockCounted() uint64 {
	var r uint64
	var b backoff.Backoff
	for {
		if l.v.Load() {
			r++
			for l.v.Load() {
				b.Wait()
			}
		}
		if !l.v.Swap(true) {
			return r
		}
		r++
	}
}

// Unlock implements Lock.
func (l *TTASLock) Unlock() { l.v.Store(false) }

// TicketLock grants the lock in FIFO order with a fetch-and-add ticket
// dispenser (Mellor-Crummey & Scott 1991, §2).
//
//hyblint:padsep
type TicketLock struct {
	next  atomic.Uint64
	_     [pad.CacheLine - unsafe.Sizeof(atomic.Uint64{})%pad.CacheLine]byte
	owner atomic.Uint64
	_     [pad.CacheLine - unsafe.Sizeof(atomic.Uint64{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TicketLock) Lock() { l.LockCounted() }

// LockCounted implements CountingLock; the count is the queue depth at
// arrival (tickets ahead of ours when we drew).
func (l *TicketLock) LockCounted() uint64 {
	t := l.next.Add(1) - 1
	r := t - l.owner.Load()
	var b backoff.Backoff
	for l.owner.Load() != t {
		b.Wait()
	}
	return r
}

// Unlock implements Lock.
func (l *TicketLock) Unlock() { l.owner.Add(1) }

// MCSLock is the Mellor-Crummey & Scott queue lock: each waiter spins on
// a flag in its own queue node, so a lock handover costs O(1) RMRs.
// Nodes are per-handle; use NewMCSHandle per goroutine.
type MCSLock struct {
	tail atomic.Pointer[mcsNode]
}

type mcsNodeHot struct {
	locked atomic.Bool
	next   atomic.Pointer[mcsNode]
}

//hyblint:padded
type mcsNode struct {
	mcsNodeHot
	_ [pad.CacheLine - unsafe.Sizeof(mcsNodeHot{})%pad.CacheLine]byte
}

// MCSHandle is one goroutine's capability to take an MCSLock.
type MCSHandle struct {
	l    *MCSLock
	node *mcsNode
}

// NewMCSHandle creates the per-goroutine handle.
func (l *MCSLock) NewMCSHandle() *MCSHandle {
	return &MCSHandle{l: l, node: &mcsNode{}}
}

// Lock acquires the lock, spinning locally on this handle's node.
func (h *MCSHandle) Lock() { h.LockCounted() }

// LockCounted implements CountingLock: 1 when the tail swap revealed a
// predecessor to queue behind, 0 for the uncontended fast path.
func (h *MCSHandle) LockCounted() uint64 {
	n := h.node
	n.next.Store(nil)
	n.locked.Store(true)
	pred := h.l.tail.Swap(n)
	if pred == nil {
		return 0
	}
	pred.next.Store(n)
	var b backoff.Backoff
	for n.locked.Load() {
		b.Wait()
	}
	return 1
}

// Unlock releases the lock, handing it to the queue successor if any.
func (h *MCSHandle) Unlock() {
	n := h.node
	next := n.next.Load()
	if next == nil {
		if h.l.tail.CompareAndSwap(n, nil) {
			return
		}
		var b backoff.Backoff
		for next = n.next.Load(); next == nil; next = n.next.Load() {
			b.Wait() // successor is between SWAP and next.Store
		}
	}
	next.locked.Store(false)
}

// CLHLock is the Craig / Landin-Hagersten queue lock: waiters spin on
// their predecessor's node.
type CLHLock struct {
	tail atomic.Pointer[clhNode]
}

//hyblint:padded
type clhNode struct {
	locked atomic.Bool
	_      [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// CLHHandle is one goroutine's capability to take a CLHLock.
type CLHHandle struct {
	l    *CLHLock
	node *clhNode
	pred *clhNode
}

// NewCLHLock creates a CLH lock (it needs an initial dummy node, so the
// zero value is not usable).
func NewCLHLock() *CLHLock {
	l := &CLHLock{}
	l.tail.Store(&clhNode{}) // initial unlocked dummy
	return l
}

// NewCLHHandle creates the per-goroutine handle.
func (l *CLHLock) NewCLHHandle() *CLHHandle {
	return &CLHHandle{l: l, node: &clhNode{}}
}

// Lock acquires the lock, spinning on the predecessor's node.
func (h *CLHHandle) Lock() { h.LockCounted() }

// LockCounted implements CountingLock: 1 when the predecessor still
// held its node locked on arrival, 0 otherwise.
func (h *CLHHandle) LockCounted() uint64 {
	h.node.locked.Store(true)
	h.pred = h.l.tail.Swap(h.node)
	if !h.pred.locked.Load() {
		return 0
	}
	var b backoff.Backoff
	for h.pred.locked.Load() {
		b.Wait()
	}
	return 1
}

// Unlock releases the lock; the predecessor's node is recycled as this
// handle's next node (the classic CLH node exchange).
func (h *CLHHandle) Unlock() {
	n := h.node
	h.node = h.pred
	n.locked.Store(false)
}

// LockExecutor adapts a Lock (or per-handle lock factory) into a
// core.Executor, so the repository's concurrent objects can run over
// classic locks as an extra baseline. The batch contract maps directly:
// an ApplyBatch executes its whole run against the object under ONE
// lock acquisition — the lock-world equivalent of a combiner round,
// except the batch must come from a single thread instead of being
// collected across threads.
type LockExecutor struct {
	core.PoisonLatch
	obj     core.Object
	factory func() Lock
	tel     *telemetry.Telemetry // metric core (Options.Telemetry; nil = disarmed)
	closed  atomic.Bool

	mu    sync.Mutex
	cells []*retryCell // one per handle, appended under mu
}

// retryCellHot is one handle's acquisition counters: acq counts lock
// acquisitions (= dispatch runs), retries the contended steps those
// acquisitions reported (see CountingLock).
type retryCellHot struct {
	acq     atomic.Uint64
	retries atomic.Uint64
}

// retryCell pads the counters to a whole cache line so each handle's
// hot-path increments stay on a private line; the executor sums them
// only on the Stats/Retries read path.
//
//hyblint:padded
type retryCell struct {
	retryCellHot
	_ [pad.CacheLine - unsafe.Sizeof(retryCellHot{})%pad.CacheLine]byte
}

// Telemetry implements core.TelemetrySource.
func (e *LockExecutor) Telemetry() *telemetry.Telemetry { return e.tel }

// Stats implements core.StatsSource: every acquisition dispatches its
// own run and nothing is ever combined on behalf of another thread, so
// rounds is the acquisition count and combined is always 0. Like every
// StatsSource, the totals are exact only at quiescence.
func (e *LockExecutor) Stats() (rounds, combined uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.cells {
		rounds += c.acq.Load()
	}
	return rounds, 0
}

// Retries implements core.RetryStats: the cumulative contended-
// acquisition steps across all handles — the contention gauge the
// adaptive hybrid executor promotes on. Exact at quiescence.
func (e *LockExecutor) Retries() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var r uint64
	for _, c := range e.cells {
		r += c.retries.Load()
	}
	return r
}

// NewLockExecutor builds an executor over locks produced by factory (one
// per handle for handle-based locks; return the same Lock for global
// ones).
func NewLockExecutor(obj core.Object, factory func() Lock) *LockExecutor {
	e := &LockExecutor{obj: obj, factory: factory}
	e.Algo = "lock"
	return e
}

// NewHandle implements core.Executor. Lock executors have no structural
// bound on participants, so handles are unlimited until Close.
func (e *LockExecutor) NewHandle() (core.Handle, error) {
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("spin: lock executor: %w", err)
	}
	if e.closed.Load() {
		return nil, fmt.Errorf("spin: lock executor: %w", core.ErrClosed)
	}
	cell := &retryCell{}
	e.mu.Lock()
	e.cells = append(e.cells, cell)
	e.mu.Unlock()
	h := &lockClient{lockClientHot: lockClientHot{e: e, lock: e.factory(), cell: cell, rec: e.tel.Recorder()}}
	h.counted, _ = h.lock.(CountingLock)
	// A lock acquisition cannot be deferred or overlapped, so every
	// submission completes on the spot.
	return core.NewImmediatePipe(h.apply, h.batch, &e.PoisonLatch, h.rec), nil
}

// Close implements core.Executor. A lock executor owns no background
// resources; closing only fails future NewHandle calls. Idempotent; on
// a poisoned executor it reports the *PoisonError.
func (e *LockExecutor) Close() error {
	e.closed.Store(true)
	return e.Err()
}

// lockClient is one thread's lock (or its node on a queue lock) and
// acquisition counters.
type lockClientHot struct {
	e       *LockExecutor
	lock    Lock
	counted CountingLock // lock when it counts (all built-ins); nil otherwise
	cell    *retryCell
	rec     *telemetry.Recorder

	one    [1]core.Req // scalar batch scratch
	oneRet [1]uint64
}

// lockClient rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type lockClient struct {
	lockClientHot
	_ [pad.CacheLine - unsafe.Sizeof(lockClientHot{})%pad.CacheLine]byte
}

// acquire takes the handle's lock, feeding the acquisition and any
// contended-retry steps into the handle's padded cell (and the armed
// telemetry core, on the contended path only — an uncontended
// acquisition pays one private-line add and nothing shared).
func (h *lockClient) acquire() {
	if h.counted == nil {
		h.lock.Lock()
	} else if r := h.counted.LockCounted(); r != 0 {
		h.cell.retries.Add(r)
		h.e.tel.NoteLockRetries(r)
	}
	h.cell.acq.Add(1)
}

// apply is the critical section: a 1-batch. The dispatch runs through
// the poison latch — recovery happens inside it, so a panicking object
// still releases the lock and later holders are never wedged; they
// observe the poisoned zero instead. Every dispatch records its
// (length-1) run, so the run-length histogram reflects the lock path's
// no-batching baseline.
func (h *lockClient) apply(op, arg uint64) uint64 {
	h.one[0] = core.Req{Op: op, Arg: arg}
	h.acquire()
	h.e.PoisonLatch.Dispatch(h.e.obj, h.one[:], h.oneRet[:])
	h.lock.Unlock()
	h.rec.RunLen(1)
	return h.oneRet[0]
}

// batch executes the whole run under ONE acquisition, amortizing both
// the handover and the dispatch indirection across it.
func (h *lockClient) batch(reqs []core.Req, results []uint64) {
	h.acquire()
	h.e.PoisonLatch.Dispatch(h.e.obj, reqs, results)
	h.lock.Unlock()
	h.rec.RunLen(len(reqs))
}
