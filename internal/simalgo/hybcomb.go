package simalgo

import "hybsync/internal/tilesim"

// HybComb is the paper's Algorithm 1 — the hybrid combining
// construction that is the paper's main contribution (§4.2). Combiner
// identity is managed through shared memory (a CAS on the
// last_registered_combiner pointer, an FAA ticket on the combiner
// node's n_ops field and a SWAP to close the combining round), while
// requests and responses travel over the hardware message network. As
// long as the combiner does not change, the protocol behaves exactly
// like MP-SERVER; the shared-memory part only pays when the combiner
// role is handed over.
//
// Node layout (line-aligned): word 0: thread_id (Proc ID of the owner),
// word 1: n_ops, word 2: combining_done.
type HybComb struct {
	obj    Object
	maxOps uint64

	// Ablation knobs (§4.2 "Additional comments"). SwapRegistration
	// replaces the CAS at line 17 with SWAP: every contender becomes a
	// combiner, so some combine only their own request. NoEagerDrain
	// removes the lines 25-28 loop: the combiner closes immediately
	// after its own op, shrinking the combining potential.
	SwapRegistration bool
	NoEagerDrain     bool

	lastReg  tilesim.Addr // word holding the last_registered_combiner node address
	departed tilesim.Addr // word holding the departed_combiner node address

	rounds   uint64 // completed combining rounds
	combined uint64 // requests served by combiners (excluding their own op)
}

// CombiningStats implements Combiner (Figure 4b and the §5.3 text
// measurements).
func (h *HybComb) CombiningStats() (rounds, combined uint64) { return h.rounds, h.combined }

const (
	hcThreadID = iota
	hcNOps
	hcDone
)

// NewHybComb creates the shared structure. maxOps is the paper's
// MAX_OPS (200 in the evaluation unless stated otherwise).
func NewHybComb(e *tilesim.Engine, obj Object, maxOps int) *HybComb {
	h := &HybComb{obj: obj, maxOps: uint64(maxOps)}
	h.lastReg = e.AllocLine(1)
	h.departed = e.AllocLine(1)
	// The initial node {⊥, MAX_OPS, true}: full (nobody can register a
	// request with it) and done (the first thread to CAS itself onto
	// lastReg proceeds immediately).
	init := e.AllocLine(3)
	poke(e, init+hcThreadID, ^uint64(0))
	poke(e, init+hcNOps, h.maxOps)
	poke(e, init+hcDone, 1)
	poke(e, h.lastReg, uint64(init))
	poke(e, h.departed, uint64(init))
	return h
}

// Handle implements Executor.
func (h *HybComb) Handle(p *tilesim.Proc) Handle {
	node := p.Alloc(3)
	// my_node ← {id, MAX_OPS, false}
	p.Write(node+hcThreadID, uint64(p.ID()))
	p.Write(node+hcNOps, h.maxOps)
	p.Write(node+hcDone, 0)
	return &hybCombHandle{h: h, p: p, myNode: node}
}

type hybCombHandle struct {
	h      *HybComb
	p      *tilesim.Proc
	myNode tilesim.Addr
}

// Apply is the paper's apply_op (Algorithm 1, lines 6-43).
func (hd *hybCombHandle) Apply(op, arg uint64) uint64 {
	p, h := hd.p, hd.h
	var opsCompleted uint64

	var lastReg tilesim.Addr
	for {
		lastReg = tilesim.Addr(p.Read(h.lastReg)) // line 9
		// Try to register with the last registered combiner (line 11).
		if p.FAA(lastReg+hcNOps, 1) < h.maxOps {
			// Success: send the request and wait for the response
			// (lines 13-14).
			p.Send(int(p.Read(lastReg+hcThreadID)), uint64(p.ID()), op+1, arg)
			return p.Recv(1)[0]
		}
		// Failure: try to register as a combiner (line 17).
		if h.SwapRegistration {
			// Ablation: SWAP always succeeds, so every contender chains
			// itself as a combiner behind the previous registrant.
			lastReg = tilesim.Addr(p.Swap(h.lastReg, uint64(hd.myNode)))
			p.Write(hd.myNode+hcNOps, 0)
			p.SpinWhile(lastReg+hcDone, func(v uint64) bool { return v == 0 })
			break
		}
		if p.CAS(h.lastReg, uint64(lastReg), uint64(hd.myNode)) {
			p.Write(hd.myNode+hcNOps, 0) // line 18
			// Wait for our predecessor to finish combining (line 19).
			p.SpinWhile(lastReg+hcDone, func(v uint64) bool { return v == 0 })
			break // line 21
		}
	}

	// Became combiner: execute our own operation first (line 23).
	retval := h.obj.Exec(p, op, arg)

	// Eagerly drain the message queue (lines 25-28). Not needed for
	// correctness, but postponing the closing SWAP increases the
	// combining potential.
	for !h.NoEagerDrain && !p.QueueEmpty() {
		m := p.Recv(3)
		p.Send(int(m[0]), h.obj.Exec(p, m[1]-1, m[2]))
		opsCompleted++
	}

	// Close combining for new requests (lines 30-32).
	totalOps := p.Swap(hd.myNode+hcNOps, h.maxOps)
	if totalOps > h.maxOps {
		totalOps = h.maxOps
	}

	// Serve the remaining registered requests (lines 34-37).
	for opsCompleted < totalOps {
		m := p.Recv(3)
		p.Send(int(m[0]), h.obj.Exec(p, m[1]-1, m[2]))
		opsCompleted++
	}

	// Exchange our node with the departed combiner's, inform the next
	// combiner and return (lines 39-43).
	oldNode := hd.myNode
	hd.myNode = tilesim.Addr(p.Swap(h.departed, uint64(oldNode)))
	p.Write(hd.myNode+hcDone, 0)
	p.Write(hd.myNode+hcThreadID, uint64(p.ID()))
	p.Write(oldNode+hcDone, 1)

	h.rounds++
	h.combined += opsCompleted
	return retval
}
