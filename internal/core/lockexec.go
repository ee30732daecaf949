package core

import (
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
}

func newLockExecutor(algo string, obj Object, o Options) *LockExecutor {
	e := &LockExecutor{obj: obj, lock: &spin.MCSLock{}}
	e.init(algo, o)
	return e
}

// Stats implements StatsSource: every acquisition dispatches its own
// run and nothing is ever combined on behalf of another thread, so
// rounds is the acquisition count and combined is 0. Under blocking
// Apply an acquisition is one operation; a pipelined handle's deferred
// run is one round of n own operations, like an ApplyBatch. The hybrid
// adds its delegation backend's combining rounds and combined requests,
// which its handles count in the same cells, so rounds + combined == ops
// holds across its transitions under blocking Apply.
func (e *LockExecutor) Stats() (rounds, combined uint64) { return e.totals().stats() }

// Retries implements RetryStats: the acquisitions, across all handles,
// that queued behind a predecessor — the contention gauge the adaptive
// hybrid executor promotes on.
func (e *LockExecutor) Retries() uint64 { return e.totals().retries }

// Pipeline implements PipelineStats: a handle's window is its deferred
// run, QueueCap operations at most (the hybrid's, in both modes).
func (e *LockExecutor) Pipeline() (submitStalls, maxDepth uint64) { return e.totals().pipeline() }

// NewHandle implements Executor.
func (e *LockExecutor) NewHandle() (Handle, error) {
	if _, err := e.admit(); err != nil {
		return nil, err
	}
	h := &lockClient{lockClientHot: e.newClient()}
	// The client is the transport: submissions are deferred into the
	// pipeline's run, QueueCap of them at most; Apply with nothing in
	// flight is the bare critical section.
	p := e.handle(pipeSpec{Transport: h, Apply: h.apply, Latch: &e.PoisonLatch, Rec: h.rec, Depth: e.Opts.QueueCap})
	h.cnt = &p.cnt
	return p, nil
}

// lockClientHot is one thread's handle on the executor's MCS lock (its
// queue node): the handle's Transport. It counts its acquisitions in
// its handle's counter cell.
type lockClientHot struct {
	e    *LockExecutor
	lock *spin.MCSHandle
	cnt  *counts
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

// newClient builds one more thread's lock handle; its counter cell is
// the Pipe's, set once the Pipe is built.
func (e *LockExecutor) newClient() lockClientHot {
	return lockClientHot{e: e, lock: e.lock.NewMCSHandle(), rec: e.Opts.Telemetry.Recorder()}
}

// Run implements Transport: the run — the pipeline's deferred window,
// or a batch with nothing in flight — executes under ONE acquisition,
// amortizing both the handover and the dispatch indirection across it,
// and nothing is ever owed. There is nobody to wait for but the lock's
// other holders, so TryWait and WaitTimeout execute the run too. The
// acquisition, and a retry if it queued, are counted in the handle's
// cell, on a line the handle owns: nothing shared. The
// dispatch runs through the poison latch — recovery happens inside it,
// so a panicking object still releases the lock and later holders are
// never wedged; they observe the poisoned zero instead. The run is
// never owed, so the window's room does not bound it.
func (h *lockClientHot) Run(reqs []Req, rets []uint64, _ int) (owed int) {
	h.cnt.retries += h.lock.LockCounted()
	h.e.PoisonLatch.Dispatch(h.e.obj, reqs, rets)
	h.lock.Unlock()
	h.cnt.rounds++
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
