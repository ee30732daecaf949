package simalgo

import "hybsync/internal/tilesim"

// MCSLockExec executes critical sections under an MCS queue lock — the
// classic-lock baseline of the paper's Section 3. The MCS lock achieves
// O(1) RMRs per acquisition through local spinning, but unlike the
// server and combining approaches the CS body executes on the acquiring
// thread's own core, so the protected object's cache lines migrate on
// every operation. Comparing this executor against the four main
// approaches quantifies §3's data-locality argument.
//
// Lock node layout (line-aligned): word 0: locked flag, word 1: next
// node address.
type MCSLockExec struct {
	obj  Object
	tail tilesim.Addr // word holding the queue tail node address (0 = free)
}

// NewMCSLockExec creates the lock and its protected object binding.
func NewMCSLockExec(e *tilesim.Engine, obj Object) *MCSLockExec {
	return &MCSLockExec{obj: obj, tail: e.AllocLine(1)}
}

// Handle implements Executor.
func (m *MCSLockExec) Handle(p *tilesim.Proc) Handle {
	return &mcsHandle{m: m, p: p, node: p.Alloc(2)}
}

type mcsHandle struct {
	m    *MCSLockExec
	p    *tilesim.Proc
	node tilesim.Addr
}

const (
	mcsLocked = 0
	mcsNext   = 1
)

// Apply acquires the lock, runs the CS on the caller's core, releases.
func (h *mcsHandle) Apply(op, arg uint64) uint64 {
	p, m := h.p, h.m

	// Acquire.
	p.Write(h.node+mcsNext, 0)
	p.Write(h.node+mcsLocked, 1)
	pred := tilesim.Addr(p.Swap(m.tail, uint64(h.node)))
	if pred != 0 {
		p.Write(pred+mcsNext, uint64(h.node))
		p.SpinWhile(h.node+mcsLocked, func(v uint64) bool { return v != 0 })
	}

	// The critical section runs on this thread's own core: the object's
	// lines migrate here (the cost §3 contrasts with CS migration).
	ret := m.obj.Exec(p, op, arg)

	// Release.
	next := tilesim.Addr(p.Read(h.node + mcsNext))
	if next == 0 {
		if p.CAS(m.tail, uint64(h.node), 0) {
			return ret
		}
		// A successor is between its SWAP and next-pointer store.
		next = tilesim.Addr(p.SpinWhile(h.node+mcsNext, func(v uint64) bool { return v == 0 }))
	}
	p.Write(next+mcsLocked, 0)
	return ret
}
