package simalgo

import "hybsync/internal/tilesim"

// MPServer is the paper's MP-SERVER (§4.1): a dedicated server thread
// executes all critical sections; clients ship 3-word request messages
// {client_id, opcode, argument} over the hardware message network and
// block on a 1-word response. The server reads requests from its local
// hardware buffer and replies with an asynchronous send, so under load
// no coherence-related stall remains on its critical path (Figure 2).
type MPServer struct {
	serverID int
}

// NewMPServer spawns the server Proc on the given core. The server
// services requests forever; it is reaped by Engine.Shutdown at the end
// of a run (on real hardware the server thread is likewise parked on a
// blocking receive when idle).
func NewMPServer(e *tilesim.Engine, core int, obj Object) *MPServer {
	server := e.Spawn("mp-server", core, func(p *tilesim.Proc) {
		for {
			m := p.Recv(3)
			ret := obj.Exec(p, m[1], m[2])
			p.Send(int(m[0]), ret)
		}
	})
	return &MPServer{serverID: server.ID()}
}

// Handle implements Executor.
func (s *MPServer) Handle(p *tilesim.Proc) Handle {
	return &mpServerHandle{s: s, p: p}
}

type mpServerHandle struct {
	s *MPServer
	p *tilesim.Proc
}

// Apply sends the request and blocks for the single-word response.
func (h *mpServerHandle) Apply(op, arg uint64) uint64 {
	h.p.Send(h.s.serverID, uint64(h.p.ID()), op, arg)
	return h.p.Recv(1)[0]
}
