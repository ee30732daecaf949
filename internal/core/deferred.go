package core

// deferredRun is a Pipe's deferred window: the operations its handle has
// shipped and not yet executed (pend), and the results of the last run
// executed that are not yet handed back (rets[head:]). Shipping adds to
// it and acquires nothing; the Pipe takes the run when a completion is
// demanded and the transport executes it as ONE run (exec.Run) — a lock
// client under one acquisition, a HybComb client as one combining
// round's own run after registering what a round still takes, a
// CC-Synch client as one chain cell. exec is nil where the transport
// never defers.
type deferredRun struct {
	exec runner
	pend []Req
	rets []uint64
	head int
}

// add appends (op, arg) to the pending run.
func (r *deferredRun) add(op, arg uint64) { r.pend = append(r.pend, Req{Op: op, Arg: arg}) }

// ready reports whether an executed result is waiting to be handed back.
func (r *deferredRun) ready() bool { return r.head < len(r.rets) }

// holds counts the in-flight operations the run accounts for: pending,
// or executed and not yet handed back.
func (r *deferredRun) holds() int { return len(r.pend) + len(r.rets) - r.head }

// take empties the pending run: it returns the run and rets sized to
// receive its results, which next hands back from rets[head] on. The
// caller executes reqs before the handle adds to the run again.
func (r *deferredRun) take() (reqs []Req, rets []uint64) {
	reqs, r.rets, r.head = r.pend, r.rets[:len(r.pend)], 0
	r.pend = r.pend[:0]
	return reqs, r.rets
}

// next hands back the oldest executed result.
func (r *deferredRun) next() uint64 {
	r.head++
	return r.rets[r.head-1]
}

// WindowDefers reports whether h defers its window into its Pipe's run
// — a lock's handle, the hybrid's (in lock mode), HybComb's and
// CC-Synch's — so that
// one round holds many of its owner's pipelined operations and
// StatsSource reads rounds + combined <= ops there (see StatsSource).
func WindowDefers(h Handle) bool {
	p, ok := h.(*Pipe)
	return ok && p.run.exec != nil
}
