package simalgo

import "hybsync/internal/tilesim"

// SHMServer is the paper's SHM-SERVER: the server approach implemented
// purely over cache-coherent shared memory, a simplified RCL (§5.2).
// Every client owns a dedicated cache line used as a bidirectional
// channel: the client writes {opcode, argument} and spins locally until
// the server's response overwrites the line. The server scans the client
// lines round-robin; reading a posted request and writing the response
// each trigger an RMR at the server (Figure 1) — the two stalls per CS
// that MP-SERVER eliminates.
//
// Slot layout (one line per client): word 0: request opcode (0 = empty,
// op+1 otherwise), word 1: argument, word 2: response sequence number,
// word 3: response value. The client observes completion via the
// response sequence number so that results (including zero) need no
// sentinel.
type SHMServer struct {
	slots []tilesim.Addr // indexed by client slot number
	next  int            // next free slot
}

const (
	slotReq = 0
	slotArg = 1
	slotSeq = 2
	slotRet = 3
)

// NewSHMServer spawns the server on the given core with room for
// maxClients client channels.
func NewSHMServer(e *tilesim.Engine, core int, obj Object, maxClients int) *SHMServer {
	s := &SHMServer{slots: make([]tilesim.Addr, maxClients)}
	for i := range s.slots {
		s.slots[i] = e.AllocLine(4)
	}
	e.Spawn("shm-server", core, func(p *tilesim.Proc) {
		addrs := make([]tilesim.Addr, len(s.slots))
		copy(addrs, s.slots)
		for {
			served := 0
			for i, slot := range s.slots {
				req := p.Read(slot + slotReq) // RMR when client posted
				if req == 0 {
					continue
				}
				arg := p.Read(slot + slotArg) // same line: local hit
				// Overlap the next client's channel fill with this CS
				// (the paper's partially-overlapped RMRs, §3/Fig 4c).
				p.Prefetch(s.slots[(i+1)%len(s.slots)] + slotReq)
				ret := obj.Exec(p, req-1, arg)
				seq := p.Read(slot + slotSeq)
				// One cache-line transaction writes the response value,
				// advances the sequence number and clears the request; it
				// is the server's second RMR per CS (W(i) in Figure 1).
				p.WriteBurst(
					tilesim.WordWrite{A: slot + slotRet, V: ret},
					tilesim.WordWrite{A: slot + slotSeq, V: seq + 1},
					tilesim.WordWrite{A: slot + slotReq, V: 0},
				)
				served++
			}
			if served == 0 {
				// All lines are cached Shared after the scan; sleep until
				// any client posts (write-invalidates one of them). The
				// real RCL server polls continuously; blocking here is
				// performance-neutral under load and keeps the event count
				// tractable when idle.
				p.WaitAnyWrite(addrs...)
			}
		}
	})
	return s
}

// Handle implements Executor. Slot numbers are handed out in Handle
// call order.
func (s *SHMServer) Handle(p *tilesim.Proc) Handle {
	if s.next >= len(s.slots) {
		panic("simalgo: more clients than SHM-SERVER slots")
	}
	h := &shmServerHandle{p: p, slot: s.slots[s.next]}
	s.next++
	return h
}

type shmServerHandle struct {
	p    *tilesim.Proc
	slot tilesim.Addr
	seq  uint64
}

// Apply posts the request in the client's channel line and spins locally
// until the response sequence number advances.
func (h *shmServerHandle) Apply(op, arg uint64) uint64 {
	h.p.Write(h.slot+slotArg, arg)
	h.p.Write(h.slot+slotReq, op+1)
	h.seq++
	want := h.seq
	h.p.SpinWhile(h.slot+slotSeq, func(v uint64) bool { return v < want })
	return h.p.Read(h.slot + slotRet)
}
