package shmsync

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/pad"
)

// SHMServer is the paper's SHM-SERVER: a simplified RCL. Each client
// owns one padded slot (its "cache line channel"); it publishes {op,
// arg} there and spins until the server writes back the result. A
// dedicated server goroutine scans the slots round-robin — each sweep
// is a batched receive in the same sense as MPServer's drain: every
// run of consecutive occupied slots found in one pass is gathered and
// executed as ONE DispatchBatch call before the results are written
// back and the slots released, and an idle server backs off (spin →
// yield → sleep) instead of burning its core. This is message passing
// emulated over coherent shared memory — the baseline whose
// per-request coherence misses MP-SERVER eliminates.
type SHMServer struct {
	core.Shell
	obj   core.Object
	slots []shmSlot // Options.MaxThreads of them
	done  chan struct{}
}

// shmSlotHot is one client channel: req holds op+1 (0 = empty). The
// server writes ret then clears req; the client spins on req. The
// enclosing shmSlot rounds it up to a whole cache line (verified by
// TestSlotLayout) so neighbouring clients never false-share.
type shmSlotHot struct {
	req atomic.Uint64
	arg uint64
	ret uint64
}

//hyblint:padded
type shmSlot struct {
	shmSlotHot
	_ [pad.CacheLine - unsafe.Sizeof(shmSlotHot{})%pad.CacheLine]byte
}

// NewSHMServer starts the polling server goroutine for up to
// Options.MaxThreads clients. Close must be called to stop it.
func NewSHMServer(obj core.Object, o core.Options) *SHMServer {
	s := &SHMServer{obj: obj, done: make(chan struct{})}
	s.Init("shmserver", o)
	s.slots = make([]shmSlot, s.Opts.MaxThreads)
	go s.serve()
	return s
}

func (s *SHMServer) serve() {
	defer close(s.done)
	// Each idle re-check is a full slot sweep, so skip the pure-spin
	// phase: yield to the clients immediately, then escalate to sleep.
	idle := backoff.Yielding()
	// A sweep gathers each run of consecutive occupied slots into one
	// batch; a gap in the scan (or the end of the sweep) flushes the
	// run as a single DispatchBatch, then writes the results back and
	// releases the slots. Contended neighbours thus amortize the
	// dispatch indirection while a lone client still gets a 1-batch.
	pend := make([]*shmSlot, 0, len(s.slots))
	reqs := make([]core.Req, 0, len(s.slots))
	rets := make([]uint64, len(s.slots))
	rec := s.Opts.Telemetry.Recorder() // server-goroutine owned
	flush := func() {
		if len(pend) == 0 {
			return
		}
		// Dispatch through the poison latch: a panicking object poisons
		// the server and the run completes with zeros, so every occupied
		// slot is still released — clients never spin on a dead server.
		s.PoisonLatch.Dispatch(s.obj, reqs, rets[:len(reqs)])
		for i, slot := range pend {
			slot.ret = rets[i]
			slot.req.Store(0) // release: the client observes ret before this
		}
		// Record after the release stores: the sweep is the round trip's
		// critical path, and even a nil-recorder call between publish and
		// release delays every spinning client.
		rec.RunLen(len(pend))
		pend = pend[:0]
		reqs = reqs[:0]
	}
	// The emptiness guard is hoisted to the call sites: flush outgrew
	// the inlining budget when it learned to record run lengths, and an
	// outlined call per empty slot taxes every sweep by a call per slot
	// — a measurable per-op regression at one client, where each sweep
	// scans the full slot array for one occupied entry. With the guard
	// here, the empty-slot path stays call-free however flush grows.
	sweep := func() (served bool) {
		for i := range s.slots {
			slot := &s.slots[i]
			req := slot.req.Load()
			if req == 0 {
				if len(pend) != 0 {
					flush() // end of a consecutive occupied run
				}
				continue
			}
			pend = append(pend, slot)
			reqs = append(reqs, core.Req{Op: req - 1, Arg: slot.arg})
			served = true
		}
		if len(pend) != 0 {
			flush()
		}
		return served
	}
	for {
		if sweep() {
			idle.Reset()
			continue
		}
		if s.Sealed() {
			// Draining close: one more full sweep after observing the seal.
			// A request published before Close happened-before the seal's
			// store, so this sweep sees it — the empty sweep above
			// may have scanned that slot before the publish landed.
			if !sweep() {
				return
			}
			continue
		}
		idle.Wait()
	}
}

// NewHandle implements core.Executor.
func (s *SHMServer) NewHandle() (core.Handle, error) {
	id, err := s.Admit()
	if err != nil {
		return nil, err
	}
	h := &shmClient{shmClientHot: shmClientHot{slot: &s.slots[id]}}
	s.Arm(&h.wb, "shmserver: waiting for server sweep")
	// A client owns exactly one request slot, so nothing can be left in
	// flight and a client's own batch cannot travel together: every
	// submission is a slot round trip, ApplyBatch loops them, and
	// batches form server-side instead, across clients, when the sweep
	// finds consecutive occupied slots.
	return core.NewImmediatePipe(h.apply, &s.PoisonLatch, s.Opts.Telemetry.Recorder()), nil
}

// Close stops the server once all in-flight requests are served (the
// server drains occupied slots before exiting, so a concurrent Apply
// that published before Close still completes). It is idempotent; on
// a poisoned executor it still stops the server and reports the
// *PoisonError.
func (s *SHMServer) Close() error {
	if s.Seal() {
		<-s.done
	}
	return s.Err()
}

// shmClient is one client's channel to the server.
type shmClientHot struct {
	slot *shmSlot
	// wb is the watched waiter for the slot spin, constructed once per
	// handle and Reset per round trip so the per-operation path never
	// zeroes the watchdog state.
	wb backoff.Watched
}

// shmClient rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type shmClient struct {
	shmClientHot
	_ [pad.CacheLine - unsafe.Sizeof(shmClientHot{})%pad.CacheLine]byte
}

// apply publishes the request in the client's slot and spins locally
// until the server clears it.
func (h *shmClient) apply(op, arg uint64) uint64 {
	h.slot.arg = arg
	h.slot.req.Store(op + 1)
	if h.slot.req.Load() != 0 {
		h.wb.Reset()
		for h.slot.req.Load() != 0 {
			h.wb.Wait()
		}
	}
	return h.slot.ret
}
