// Package spin provides the MCS queue lock (Mellor-Crummey & Scott,
// TOCS 1991), the classic-lock baseline of the paper's Section 3: a
// queue lock achieves O(1) RMRs per acquisition through local
// spinning, but unlike the server/combiner approaches it still moves
// the protected data to the acquiring core on every critical section.
// The package is a leaf: it holds the algorithm only, and internal/core
// adapts it into an executor (core.LockExecutor, which is also the
// hybrid's lock mode).
package spin

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// MCSLock is the Mellor-Crummey & Scott queue lock: each waiter spins on
// a flag in its own queue node, so a lock handover costs O(1) RMRs.
// Nodes are per-handle; use NewMCSHandle per goroutine.
type MCSLock struct {
	tail atomic.Pointer[mcsNode]
}

// mcsNodeHot's locked flag is a plain word with atomic accessors
// rather than an atomic type, so that LockCounted can set it plainly
// while no other thread can reach it (see LockCounted).
type mcsNodeHot struct {
	locked uint32 // 1 while the owner must spin; cleared by the hand-off
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

// LockCounted is Lock reporting contention: 1 when the tail swap
// revealed a predecessor to queue behind, 0 for the uncontended fast
// path. The caller adds the result to its handle's counter cell, a
// plain word, and the adaptive hybrid executor's promotion signal is
// built from those cells.
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
	// Set before the link, because the releaser may clear it at once.
	// The write is plain: locked has no other accessor until the link
	// store below, and the predecessor's hand-off reaches n only through
	// the atomic load of pred.next that observes that store, so the
	// write happens before the hand-off's (go.dev/ref/mem). The last
	// write before this one, the hand-off that ended n's previous wait,
	// happened before that wait's final load did.
	n.locked = 1
	pred.next.Store(n)
	var b backoff.Backoff
	for atomic.LoadUint32(&n.locked) != 0 {
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
	atomic.StoreUint32(&next.locked, 0)
	// n is dequeued once the successor is known: no one links behind it
	// again until its owner re-enqueues, so clearing next here (the
	// contended path only, and off the hand-off's critical path)
	// re-establishes the node invariant.
	n.next.Store(nil)
}
