// Package spin provides the classic spin-lock algorithms — test-and-set,
// test-and-test-and-set, ticket, MCS and CLH queue locks — the
// classic-lock baselines of the paper's Section 3: queue locks achieve
// O(1) RMRs per acquisition through local spinning, but unlike the
// server/combiner approaches they still move the protected data to the
// acquiring core on every critical section. The package is a leaf: it
// holds the algorithms only, and internal/core adapts them into
// executors (core.LockExecutor, and the hybrid's lock mode).
package spin

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// Lock is a mutual-exclusion lock whose acquisition also reports
// contention. LockCounted acquires the lock and returns the number of
// contended steps the acquisition took: 0 for an acquisition that
// succeeded on the first attempt, and otherwise a lock-specific
// positive count (failed swaps for tas/ttas, waiters ahead at arrival
// for ticket, 1 for the queue locks, which learn only "had a
// predecessor"); Lock is LockCounted with the count dropped. The count
// feeds the lock executor's per-handle retry cells and, through them,
// the adaptive hybrid executor's promotion signal. Locks in this
// package are not reentrant.
type Lock interface {
	Lock()
	LockCounted() uint64
	Unlock()
}

// TASLock is a plain test-and-set lock: every acquisition attempt is a
// remote atomic, so contention floods the interconnect.
type TASLock struct {
	v atomic.Bool
	_ [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TASLock) Lock() { l.LockCounted() }

// LockCounted implements Lock, counting failed swaps.
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
type TTASLock struct {
	v atomic.Bool
	_ [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TTASLock) Lock() { l.LockCounted() }

// LockCounted implements Lock, counting each pass that found
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
type TicketLock struct {
	next  atomic.Uint64
	_     [pad.CacheLine - unsafe.Sizeof(atomic.Uint64{})%pad.CacheLine]byte
	owner atomic.Uint64
	_     [pad.CacheLine - unsafe.Sizeof(atomic.Uint64{})%pad.CacheLine]byte
}

// Lock implements Lock.
func (l *TicketLock) Lock() { l.LockCounted() }

// LockCounted implements Lock; the count is the queue depth at
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

// LockCounted implements Lock: 1 when the tail swap revealed a
// predecessor to queue behind, 0 for the uncontended fast path.
//
// The node invariant — next is nil and locked is false whenever the
// node is not enqueued — is restored by the contended handoff in
// Unlock, so the uncontended acquire is a single tail swap with no
// pointer-store write barrier (this path is the whole t=1 budget of the
// mcs-lock executor and of the hybrid's lock mode).
func (h *MCSHandle) LockCounted() uint64 {
	n := h.node
	pred := h.l.tail.Swap(n)
	if pred == nil {
		return 0
	}
	n.locked.Store(true) // before the link: the releaser may clear it immediately
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
	// n is dequeued once the successor is known: no one links behind it
	// again until its owner re-enqueues, so clearing next here (the
	// contended path only, and off the hand-off's critical path)
	// re-establishes the node invariant.
	n.next.Store(nil)
}

// CLHLock is the Craig / Landin-Hagersten queue lock: waiters spin on
// their predecessor's node.
type CLHLock struct {
	tail atomic.Pointer[clhNode]
}

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

// LockCounted implements Lock: 1 when the predecessor still
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
