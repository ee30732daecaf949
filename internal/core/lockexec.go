package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/pad"
	"hybsync/internal/spin"
	"hybsync/internal/telemetry"
)

// LockExecutor adapts one MCS queue lock into an Executor, so the
// repository's concurrent objects can run over the paper's classic-lock
// baseline, mcs-lock; each handle holds its own node-carrying handle on
// the executor's one lock. The batch contract maps directly: an
// ApplyBatch executes its whole run against the object under ONE lock
// acquisition — the lock-world equivalent of a combiner round, except
// the batch must come from a single thread instead of being collected
// across threads. A handle's pipelined submissions are the same run
// spelled one call at a time: Submit and Post join a deferred run that
// executes under one acquisition when a completion is demanded (see
// lockClientHot.Run), so a window costs one hand-off of the lock — and
// of the protected data — instead of one per operation.
type LockExecutor struct {
	Shell
	obj  Object
	lock *spin.MCSLock // its own allocation: no executor field shares the tail's line

	mu    sync.Mutex
	cells []*retryCell // one per handle, appended under mu
}

// retryCellHot is one handle's counters: acq counts lock acquisitions
// (= dispatch runs), retries those that queued behind a predecessor
// (see spin.MCSHandle.LockCounted), ps the stalls and depth of its
// window.
type retryCellHot struct {
	acq     atomic.Uint64
	retries atomic.Uint64
	ps      pipeCounters
}

// retryCell pads the counters to a whole cache line so each handle's
// hot-path increments stay on a private line; the executor sums them
// only on the read path (Stats, Retries, Pipeline, the hybrid's
// controller).
type retryCell struct {
	retryCellHot
	_ [pad.CacheLine - unsafe.Sizeof(retryCellHot{})%pad.CacheLine]byte
}

func newLockExecutor(algo string, obj Object, o Options) *LockExecutor {
	e := &LockExecutor{obj: obj, lock: &spin.MCSLock{}}
	e.init(algo, o)
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

// Retries implements RetryStats: the acquisitions, across all handles,
// that queued behind a predecessor — the contention gauge the adaptive
// hybrid executor promotes on.
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
	if _, err := e.admit(); err != nil {
		return nil, err
	}
	h := &lockClient{lockClientHot: e.newClient()}
	// The client is the transport: submissions are deferred into the
	// pipeline's run, QueueCap of them at most; Apply with nothing in
	// flight is the bare critical section.
	return newPipe(pipeSpec{Transport: h, Apply: h.apply, Latch: &e.PoisonLatch, Rec: h.rec,
		Counters: &h.cell.ps, Depth: e.Opts.QueueCap}), nil
}

// lockClientHot is one thread's handle on the executor's MCS lock (its
// queue node) and its acquisition counters: the handle's Transport.
type lockClientHot struct {
	e    *LockExecutor
	lock *spin.MCSHandle
	cell *retryCell
	rec  *telemetry.Recorder

	one    [1]Req // scalar batch scratch
	oneRet [1]uint64
}

// lockClient rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type lockClient struct {
	lockClientHot
	_ [pad.CacheLine - unsafe.Sizeof(lockClientHot{})%pad.CacheLine]byte
}

// newClient builds one more thread's lock handle and counters.
func (e *LockExecutor) newClient() lockClientHot {
	cell := &retryCell{}
	e.mu.Lock()
	e.cells = append(e.cells, cell)
	e.mu.Unlock()
	return lockClientHot{e: e, lock: e.lock.NewMCSHandle(), cell: cell, rec: e.Opts.Telemetry.Recorder()}
}

// Run implements Transport: the run — the pipeline's deferred window,
// or a batch with nothing in flight — executes under ONE acquisition,
// amortizing both the handover and the dispatch indirection across it,
// and nothing is ever owed. There is nobody to wait for but the lock's
// other holders, so TryWait and WaitTimeout execute the run too. The
// acquisition, and a retry if it queued, feed the handle's padded cell
// (and the armed telemetry core, on the contended path only — an
// uncontended acquisition pays one private-line add and nothing
// shared). The dispatch runs through the poison latch — recovery
// happens inside it, so a panicking object still releases the lock and
// later holders are never wedged; they observe the poisoned zero
// instead. The run is never owed, so the window's room does not bound it.
func (h *lockClientHot) Run(reqs []Req, rets []uint64, _ int) (owed int) {
	if r := h.lock.LockCounted(); r != 0 {
		h.cell.retries.Add(r)
		h.e.Opts.Telemetry.NoteLockRetries(r)
	}
	h.e.PoisonLatch.Dispatch(h.e.obj, reqs, rets)
	h.lock.Unlock()
	h.cell.acq.Add(1)
	h.rec.RunLen(len(reqs))
	return 0
}

// apply is the critical section: a run of one, so the run-length
// histogram reflects the lock path's no-batching baseline.
func (h *lockClientHot) apply(op, arg uint64) uint64 {
	h.one[0] = Req{Op: op, Arg: arg}
	h.Run(h.one[:], h.oneRet[:], 1)
	return h.oneRet[0]
}
