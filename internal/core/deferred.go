package core

// deferredRun is the one deferred window: the operations a handle has
// shipped and not yet executed (pend), and the results of the last run
// it executed that are not yet handed back to the pipeline (rets[head:]).
// A transport's Ship adds to it and acquires nothing; its Next takes the
// run when a completion is demanded and executes it as ONE run — a lock
// client under one acquisition, a HybComb client as one combining
// round's own run after registering what a round still takes. Driven by
// the handle's goroutine only.
type deferredRun struct {
	pend []Req
	rets []uint64
	head int
}

// add appends (op, arg) to the pending run.
func (r *deferredRun) add(op, arg uint64) { r.pend = append(r.pend, Req{Op: op, Arg: arg}) }

// owes reports whether anything shipped into the run is still to be
// handed back, executed or not.
func (r *deferredRun) owes() bool { return r.head < len(r.rets) || len(r.pend) > 0 }

// ready reports whether an executed result is waiting to be handed back.
func (r *deferredRun) ready() bool { return r.head < len(r.rets) }

// take empties the pending run: it returns the run and rets sized to
// receive its results, which next hands back from rets[0] on. The caller
// executes reqs before the handle adds to the run again.
func (r *deferredRun) take() (reqs []Req, rets []uint64) {
	if cap(r.rets) < len(r.pend) {
		r.rets = make([]uint64, cap(r.pend))
	}
	reqs, r.rets, r.head = r.pend, r.rets[:len(r.pend)], 0
	r.pend = r.pend[:0]
	return reqs, r.rets
}

// next hands back the oldest executed result.
func (r *deferredRun) next() uint64 {
	r.head++
	return r.rets[r.head-1]
}

// join is Batch behind a run still owed: every request joins the pending
// run and takes the handle's next window slot, so the batch executes
// with — and after — what it queued behind.
func (r *deferredRun) join(p *Pipe, reqs []Req) (ticketed int) {
	for _, q := range reqs {
		p.makeRoom()
		r.add(q.Op, q.Arg)
		p.issue()
	}
	return len(reqs)
}

// WindowDefers reports whether ex's handles defer their window into a
// deferredRun — the locks, the hybrid (its lock mode) and HybComb — so
// that one round holds many of its owner's pipelined operations and
// StatsSource reads rounds + combined <= ops there (see StatsSource).
func WindowDefers(ex Executor) bool {
	_, ok := ex.(interface{ defersWindow() })
	return ok
}

func (*LockExecutor) defersWindow() {}
func (*HybComb) defersWindow()      {}
