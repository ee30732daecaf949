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

// LockCounted is Lock reporting contention: 1 when the tail swap
// revealed a predecessor to queue behind, 0 for the uncontended fast
// path. The count feeds the lock handles' counter cells and, through
// them, the adaptive hybrid executor's promotion signal.
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
