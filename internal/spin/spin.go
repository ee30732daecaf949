// Package spin provides the MCS queue lock (Mellor-Crummey & Scott,
// TOCS 1991), the classic-lock baseline of the paper's Section 3, and
// two centralized spin locks beside it, test-and-set and
// test-and-test-and-set: a queue lock achieves O(1) RMRs per
// acquisition through local spinning, but unlike the server/combiner
// approaches it still moves the protected data to the acquiring core
// on every critical section. The package is a leaf: it holds the
// algorithms only, and internal/core adapts them into executors
// (core.LockExecutor, and the hybrid's lock mode, which is MCS).
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
// positive count (failed attempts for tas/ttas; 1 for MCS, which
// learns only "had a predecessor"); Lock is LockCounted with the count
// dropped. The count feeds the lock executor's per-handle retry cells
// and, through them, the adaptive hybrid executor's promotion signal.
// Locks in this package are not reentrant.
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
