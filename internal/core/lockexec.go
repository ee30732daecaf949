package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/pad"
	"hybsync/internal/spin"
	"hybsync/internal/telemetry"
)

// The lock-based executors, by registry name. Queue locks (mcs, clh)
// hand each executor handle its own node-carrying lock handle over one
// shared lock; the centralized locks (tas, ttas, ticket) share one
// instance.
func init() {
	for name, mk := range map[string]func() func() spin.Lock{
		"tas-lock":    func() func() spin.Lock { l := &spin.TASLock{}; return func() spin.Lock { return l } },
		"ttas-lock":   func() func() spin.Lock { l := &spin.TTASLock{}; return func() spin.Lock { return l } },
		"ticket-lock": func() func() spin.Lock { l := &spin.TicketLock{}; return func() spin.Lock { return l } },
		"mcs-lock":    func() func() spin.Lock { l := &spin.MCSLock{}; return func() spin.Lock { return l.NewMCSHandle() } },
		"clh-lock":    func() func() spin.Lock { l := spin.NewCLHLock(); return func() spin.Lock { return l.NewCLHHandle() } },
	} {
		MustRegister(name, func(obj Object, o Options) (Executor, error) { return newLockExecutor(name, mk(), obj, o), nil })
	}
}

// LockExecutor adapts a spin.Lock into an Executor, so the repository's
// concurrent objects can run over classic locks as an extra baseline.
// The batch contract maps directly: an ApplyBatch executes its whole
// run against the object under ONE lock acquisition — the lock-world
// equivalent of a combiner round, except the batch must come from a
// single thread instead of being collected across threads. A handle's
// pipelined submissions are the same run spelled one call at a time:
// Submit and Post join a deferred run that executes under one
// acquisition when a completion is demanded (see lockClientHot.Run),
// so a window costs one hand-off of the lock — and of the protected
// data — instead of one per operation.
type LockExecutor struct {
	Shell
	obj     Object
	factory func() spin.Lock // one lock per handle, or the one shared lock

	mu    sync.Mutex
	cells []*retryCell // one per handle, appended under mu
}

// retryCellHot is one handle's counters: acq counts lock acquisitions
// (= dispatch runs), retries the contended steps those acquisitions
// reported (see spin.Lock), ps the stalls and depth of its window.
type retryCellHot struct {
	acq     atomic.Uint64
	retries atomic.Uint64
	ps      PipeCounters
}

// retryCell pads the counters to a whole cache line so each handle's
// hot-path increments stay on a private line; the executor sums them
// only on the read path (Stats, Retries, Pipeline, the hybrid's
// controller).
//
//hyblint:padded
type retryCell struct {
	retryCellHot
	_ [pad.CacheLine - unsafe.Sizeof(retryCellHot{})%pad.CacheLine]byte
}

func newLockExecutor(algo string, factory func() spin.Lock, obj Object, o Options) *LockExecutor {
	e := &LockExecutor{obj: obj, factory: factory}
	e.Init(algo, o)
	return e
}

// counts sums the per-handle cells; exact only at quiescence.
func (e *LockExecutor) counts() (acq, retries uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.cells {
		acq += c.acq.Load()
		retries += c.retries.Load()
	}
	return acq, retries
}

// Stats implements StatsSource: every acquisition dispatches its own
// run and nothing is ever combined on behalf of another thread, so
// rounds is the acquisition count and combined is always 0. Under
// blocking Apply an acquisition is one operation; a pipelined handle's
// deferred run is one round of n own operations, like an ApplyBatch.
func (e *LockExecutor) Stats() (rounds, combined uint64) {
	rounds, _ = e.counts()
	return rounds, 0
}

// Retries implements RetryStats: the cumulative contended-acquisition
// steps across all handles — the contention gauge the adaptive hybrid
// executor promotes on.
func (e *LockExecutor) Retries() uint64 {
	_, r := e.counts()
	return r
}

// Pipeline implements PipelineStats over the per-handle cells: a
// handle's window is its deferred run, QueueCap operations at most.
func (e *LockExecutor) Pipeline() (submitStalls, maxDepth uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, c := range e.cells {
		s, d := c.ps.Pipeline()
		submitStalls, maxDepth = submitStalls+s, max(maxDepth, d)
	}
	return submitStalls, maxDepth
}

// NewHandle implements Executor.
func (e *LockExecutor) NewHandle() (Handle, error) {
	if _, err := e.Admit(); err != nil {
		return nil, err
	}
	h := &lockClient{lockClientHot: e.newClient()}
	// The client is the transport: submissions are deferred into the
	// pipeline's run, QueueCap of them at most; Apply with nothing in
	// flight is the bare critical section.
	return NewPipe(PipeSpec{Transport: h, Apply: h.apply, Latch: &e.PoisonLatch, Rec: h.rec,
		Counters: &h.cell.ps, Depth: e.Opts.QueueCap}), nil
}

// Close implements Executor. A lock executor owns no background
// resources; closing only fails future NewHandle calls — a handle's
// pending run still executes at the Wait or Flush that redeems it.
// Idempotent; on a poisoned executor it reports the *PoisonError.
func (e *LockExecutor) Close() error {
	e.Seal()
	return e.Err()
}

// lockClientHot is one thread's lock (or its node on a queue lock) and
// acquisition counters: the handle's Transport.
type lockClientHot struct {
	e    *LockExecutor
	lock spin.Lock
	cell *retryCell
	rec  *telemetry.Recorder

	one    [1]Req // scalar batch scratch
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

// newClient builds one more thread's lock and counters.
func (e *LockExecutor) newClient() lockClientHot {
	cell := &retryCell{}
	e.mu.Lock()
	e.cells = append(e.cells, cell)
	e.mu.Unlock()
	return lockClientHot{e: e, lock: e.factory(), cell: cell, rec: e.Opts.Telemetry.Recorder()}
}

// batch executes the whole run under ONE acquisition, amortizing both
// the handover and the dispatch indirection across it. The acquisition
// and any contended-retry steps feed the handle's padded cell (and the
// armed telemetry core, on the contended path only — an uncontended
// acquisition pays one private-line add and nothing shared). The
// dispatch runs through the poison latch — recovery happens inside it,
// so a panicking object still releases the lock and later holders are
// never wedged; they observe the poisoned zero instead.
func (h *lockClientHot) batch(reqs []Req, results []uint64) {
	if r := h.lock.LockCounted(); r != 0 {
		h.cell.retries.Add(r)
		h.e.Opts.Telemetry.NoteLockRetries(r)
	}
	h.e.PoisonLatch.Dispatch(h.e.obj, reqs, results)
	h.lock.Unlock()
	h.cell.acq.Add(1)
	h.rec.RunLen(len(reqs))
}

// apply is the critical section: a 1-batch, so the run-length histogram
// reflects the lock path's no-batching baseline.
func (h *lockClientHot) apply(op, arg uint64) uint64 {
	h.one[0] = Req{Op: op, Arg: arg}
	h.batch(h.one[:], h.oneRet[:])
	return h.oneRet[0]
}

// Ship implements Transport: the operation is deferred into the
// pipeline's pending run. Nothing is acquired — the run executes when a
// completion is demanded, and the pipeline's in-flight bound (QueueCap)
// is what demands one at the latest.
func (h *lockClientHot) Ship(uint64, uint64) (uint64, Shipped) { return 0, ShipDeferred }

// Next implements Transport: a lock client owes nothing but its run.
func (h *lockClientHot) Next(bool) (uint64, bool) { panic(NeverOwed) }

// Run executes the pending run under ONE acquisition. There is nobody to
// wait for but the lock's other holders, so TryWait and WaitTimeout
// execute the run too.
func (h *lockClientHot) Run(reqs []Req, rets []uint64) (owed int) {
	h.batch(reqs, rets)
	return 0
}

// Batch implements Transport: with nothing in flight, the batch is one
// run executed on the spot, no ticket at all.
func (h *lockClientHot) Batch(_ *Pipe, reqs []Req, done []uint64) (ticketed int) {
	return h.Run(reqs, done)
}
