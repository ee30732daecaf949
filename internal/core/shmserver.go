package core

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// SHMServer is the paper's SHM-SERVER: a simplified RCL. Each client
// owns one padded slot (its "cache line channel"); it publishes {op,
// arg} there and spins until the server writes back the result. A
// server loop of the pool (see attach), which may serve other executors
// between this one's sweeps, scans the slots round-robin — each sweep
// is a batched receive in the same sense as MPServer's drain: every
// run of consecutive occupied slots found in one pass is gathered and
// executed as ONE DispatchBatch call before the results are written
// back and the slots released, and an idle loop backs off instead of
// burning its processor. This is message passing
// emulated over coherent shared memory — the baseline whose
// per-request coherence misses MP-SERVER eliminates.
type SHMServer struct {
	server
	slots []shmSlot // Options.MaxThreads of them
}

// shmSlotHot is one client channel: the client writes op and arg, then
// sets req; the server writes ret, then clears req; the client spins
// on req. req is a flag of its own, so every opcode is an operation.
// The enclosing shmSlot rounds it up to a whole cache line (verified
// by TestSlotLayout) so neighbouring clients never false-share.
type shmSlotHot struct {
	req     atomic.Uint64 // 1 while a request waits in the slot, 0 when served
	op, arg uint64
	ret     uint64
}

type shmSlot struct {
	shmSlotHot
	_ [pad.CacheLine - unsafe.Sizeof(shmSlotHot{})%pad.CacheLine]byte
}

// NewSHMServer builds the executor for up to Options.MaxThreads
// clients and attaches it to a loop of the server pool, which sweeps
// its slots until Close: Close must be called to let the loop go.
func NewSHMServer(obj Object, o Options) *SHMServer {
	s := new(SHMServer)
	s.init("shmserver", obj, o)
	s.slots = make([]shmSlot, s.Opts.MaxThreads)
	attach(s, &s.server)
	return s
}

// drain implements source with one sweep of the slots. It gathers
// each run of consecutive occupied slots into one batch; a gap in the
// scan (or the end of the sweep) flushes the run as a single
// DispatchBatch, then writes the results back and releases the slots. Contended neighbours thus amortize the dispatch indirection
// while a lone client still gets a 1-batch.
//
// A sweep scans only the slots of admitted handles: the rest stay
// empty, and an idle loop's re-check then costs what MP-SERVER's empty
// receive does, whatever MaxThreads is. A handle is admitted before
// its first publish, so a sweep that misses a slot just admitted
// finds it on the next, and the loop's last sweep after Close finds
// every slot a request was stored in before.
//
// The emptiness guard is hoisted to the call sites: flush outgrew
// the inlining budget when it learned to record run lengths, and an
// outlined call per empty slot taxes every sweep by a call per slot.
// With the guard here, the empty-slot path stays call-free however
// flush grows.
func (s *SHMServer) drain(sc *scratch) (served bool) {
	slots := s.slots[:min(int(s.handles.Load()), len(s.slots))]
	run, rets := sc.run[:0], sc.results(len(slots))
	for i := range slots {
		slot := &slots[i]
		if slot.req.Load() == 0 {
			if len(run) != 0 {
				s.flush(slots[i-len(run):i], run, rets) // end of a consecutive occupied run
				run = run[:0]
			}
			continue
		}
		run = append(run, Req{Op: slot.op, Arg: slot.arg})
		served = true
	}
	if len(run) != 0 {
		s.flush(slots[len(slots)-len(run):], run, rets)
	}
	sc.run = run
	return served
}

// flush executes the run the occupied slots hold and releases them.
func (s *SHMServer) flush(slots []shmSlot, run []Req, rets []uint64) {
	// Dispatch through the poison latch: a panicking object poisons
	// the executor and the run completes with zeros, so every occupied
	// slot is still released — clients never spin on a dead server.
	s.PoisonLatch.Dispatch(s.obj, run, rets[:len(run)])
	for i := range slots {
		slots[i].ret = rets[i]
		slots[i].req.Store(0) // release: the client observes ret before this
	}
	// Record after the release stores: the sweep is the round trip's
	// critical path, and even a nil-recorder call between publish and
	// release delays every spinning client.
	s.rec.RunLen(len(run))
}

// NewHandle implements Executor.
func (s *SHMServer) NewHandle() (Handle, error) {
	id, err := s.admit()
	if err != nil {
		return nil, err
	}
	h := &shmClient{shmClientHot: shmClientHot{s: s, slot: &s.slots[id]}}
	s.arm(&h.wb, "shmserver: waiting for server sweep")
	s.clients.join()
	// A client owns exactly one request slot, so nothing can be left in
	// flight and a client's own batch cannot travel together: every
	// submission is a slot round trip, ApplyBatch loops them, and
	// batches form server-side instead, across clients, when the sweep
	// finds consecutive occupied slots.
	return newImmediatePipe(h.apply, &s.PoisonLatch, s.Opts.Telemetry.Recorder()), nil
}

// shmClient is one client's channel to the server.
type shmClientHot struct {
	s    *SHMServer
	slot *shmSlot
	// wb is the watched waiter for the slot spin, constructed once per
	// handle and Reset per round trip so the per-operation path never
	// zeroes the watchdog state.
	wb backoff.Watched
}

// shmClient rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type shmClient struct {
	shmClientHot
	_ [pad.CacheLine - unsafe.Sizeof(shmClientHot{})%pad.CacheLine]byte
}

// apply publishes the request in the client's slot and spins locally
// until the server clears it. After Close the slot is clear once
// pastSeal returns.
func (h *shmClient) apply(op, arg uint64) uint64 {
	h.slot.op, h.slot.arg = op, arg
	h.slot.req.Store(1)
	h.s.pastSeal(h.s)
	if h.slot.req.Load() != 0 {
		h.wb.Reset()
		for h.slot.req.Load() != 0 {
			h.wb.Wait()
		}
	}
	return h.slot.ret
}
