// Package shmsync implements the paper's pure-shared-memory baselines:
// CC-SYNCH (Fatourou & Kallimanis, PPoPP'12), the most efficient
// shared-memory combining construction, and SHM-SERVER, a simplified RCL
// (Lozi et al., USENIX ATC'12) where a dedicated server thread polls
// per-client cache-line channels. Both satisfy core.Executor so every
// concurrent object in this repository can run over them.
package shmsync

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// The package's constructions self-register with the core registry so
// hybsync.NewObject can build them by name.
func init() {
	core.MustRegister("ccsynch", func(obj core.Object, o core.Options) (core.Executor, error) { return NewCCSynch(obj, o), nil })
	core.MustRegister("shmserver", func(obj core.Object, o core.Options) (core.Executor, error) { return NewSHMServer(obj, o), nil })
}

// CCSynch executes critical sections with the CC-Synch combining
// algorithm: threads SWAP their spare node onto a shared tail to publish
// a request, spin locally on their node's wait flag, and the thread
// whose wait clears with completed unset becomes the combiner, serving
// up to MaxOps requests along the list. The combiner walks its chain
// segment into a reusable request batch and executes each run as one
// DispatchBatch call against the object (chunked at ccRunCap),
// releasing the served cells after the run — the dispatch analogue of
// the message-passing constructions' batched receives.
//
// Asynchronous submission defers, as on a lock handle (see
// ccTransport.Run): Submit and Post join the pipeline's pending run and
// publish nothing. When a completion is demanded the whole run is
// published as ONE cell that points at it — one tail SWAP, one cell and
// one spin per window instead of one per operation — and the combiner
// that walks the cell serves all of its requests. A handle therefore
// has at most one cell on the chain, and its owner is spinning on it,
// so combiner duty handed to a cell is always taken up at once.
//
// tail is declared ahead of the shell on purpose: it then shares its
// cache line with the latch and MaxOps, which a combiner reads before it
// walks the chain. Re-fetching that line after a publisher's SWAP is a
// delay in which the publisher links its cell, so the walk finds it and
// the round serves it instead of ending in a hand-off; with the tail on
// a line of its own two contending threads run 20 % slower
// (contended-apply, CHANGES.md PR 18). An honest waiting policy at the
// chain's end belongs to ROADMAP direction C.
type CCSynch struct {
	tail atomic.Pointer[ccNode]
	core.Shell
	obj core.Object

	rounds   atomic.Uint64
	combined atomic.Uint64
	ps       core.PipeCounters
}

// ccNodeHot is a request cell's live fields: one (op, arg), or, when run
// is set, a handle's whole deferred run. Every thread spins on its own
// node's wait flag, so the enclosing ccNode rounds the cell up to one
// cache line (verified by TestNodeLayout) to keep separately-allocated
// nodes from false-sharing; run is one pointer rather than the run's two
// slice headers, which would take the cell to two lines.
type ccNodeHot struct {
	wait      atomic.Bool
	completed bool
	op        uint64
	arg       uint64
	ret       uint64
	run       *ccRun
	next      atomic.Pointer[ccNode]
}

//hyblint:padded
type ccNode struct {
	ccNodeHot
	_ [pad.CacheLine - unsafe.Sizeof(ccNodeHot{})%pad.CacheLine]byte
}

// ccRun is a deferred run as its cell publishes it: the requests, and
// where the combiner that serves the cell writes their results before it
// clears the cell's wait flag.
type ccRun struct {
	reqs []core.Req
	rets []uint64
}

// NewCCSynch creates the structure; Options.MaxOps is the combining
// bound and Options.QueueCap the per-handle in-flight bound.
func NewCCSynch(obj core.Object, o core.Options) *CCSynch {
	c := &CCSynch{obj: obj}
	c.Init("ccsynch", o)
	c.tail.Store(&ccNode{}) // initial dummy: wait=false, completed=false
	return c
}

// NewHandle implements core.Executor.
func (c *CCSynch) NewHandle() (core.Handle, error) {
	if _, err := c.Admit(); err != nil {
		return nil, err
	}
	h := &ccTransport{ccTransportHot: ccTransportHot{c: c, node: &ccNode{}, rec: c.Opts.Telemetry.Recorder()}}
	c.Arm(&h.wb, "ccsynch: waiting for cell service")
	return core.NewPipe(core.PipeSpec{Transport: h, Apply: h.apply, Latch: &c.PoisonLatch, Rec: h.rec,
		Counters: &c.ps, Depth: c.Opts.QueueCap, Waiter: &h.wb}), nil
}

// Close implements core.Executor. CC-Synch owns no background
// goroutine, and a handle's pending run is published and served at the
// Wait or Flush that demands it, so tickets stay redeemable after
// Close. Closing only fails future NewHandle calls; it is idempotent and
// reports the *PoisonError when poisoned.
func (c *CCSynch) Close() error {
	c.Seal()
	return c.Err()
}

// Stats returns combining rounds and requests combined for others (a
// round's first cell is its combiner's own and counts towards neither).
// Read only at pipeline quiescence (every handle flushed).
func (c *CCSynch) Stats() (rounds, combined uint64) {
	return c.rounds.Load(), c.combined.Load()
}

// Pipeline implements core.PipelineStats.
func (c *CCSynch) Pipeline() (submitStalls, maxDepth uint64) { return c.ps.Pipeline() }

// ccTransport is one thread's end of the chain. Ship defers into the
// pipeline's run, and Run publishes that run as one cell and completes
// it on the spot, so the handle never leaves a cell on the chain that
// nobody spins on.
type ccTransportHot struct {
	c *CCSynch
	// node is the resident spare of the paper's node exchange: publish
	// swaps it onto the tail, and complete takes the served cell back in
	// its place.
	node *ccNode
	// run is what the handle's cell points at while a run is published.
	run ccRun

	// Combiner-side batch scratch: the chain segment being served, its
	// requests and their results (chunked at ccRunCap).
	cells []*ccNode
	creqs []core.Req
	crets []uint64

	rec *telemetry.Recorder

	// wb is the watched waiter for cell-service spins, constructed once
	// per handle and Reset per wait loop so the per-operation path never
	// zeroes the watchdog state.
	wb backoff.Watched
}

// ccTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type ccTransport struct {
	ccTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(ccTransportHot{})%pad.CacheLine]byte
}

// publish is the submission half of CC-Synch: swap the spare node onto
// the tail and fill the previous tail with our request, (op, arg) or
// run. The returned cell is the request's completion point.
func (h *ccTransport) publish(op, arg uint64, run *ccRun) *ccNode {
	nextNode := h.node
	nextNode.wait.Store(true)
	nextNode.completed = false
	nextNode.next.Store(nil)

	cur := h.c.tail.Swap(nextNode)
	cur.op = op
	cur.arg = arg
	cur.run = run
	cur.next.Store(nextNode) // publish after filling the request
	return cur
}

// ccRunCap bounds one DispatchBatch run while combining, matching the
// message-passing constructions' receive-buffer cap: a round of up to
// MaxOps requests is served in runs of at most this many, except that a
// run cell is never split.
const ccRunCap = 256

// flushRun executes the collected chain segment as one DispatchBatch,
// scatters the results to the cells (a run cell's into its run's rets)
// and releases every served cell but the combiner's own, cur.
func (h *ccTransport) flushRun(cur *ccNode) {
	if len(h.creqs) == 0 {
		return
	}
	if cap(h.crets) < len(h.creqs) {
		h.crets = make([]uint64, len(h.creqs))
	}
	rets := h.crets[:len(h.creqs)]
	// Dispatch through the poison latch: a panicking object poisons the
	// executor and the run completes with zeros, so every cell in the
	// segment is still released and no follower spins forever.
	h.c.PoisonLatch.Dispatch(h.c.obj, h.creqs, rets)
	h.rec.RunLen(len(rets))
	k := 0
	for _, cell := range h.cells {
		if cell.run != nil {
			k += copy(cell.run.rets, rets[k:])
		} else {
			cell.ret = rets[k]
			k++
		}
		if cell != cur {
			cell.completed = true
			cell.wait.Store(false)
		}
	}
	h.cells = h.cells[:0]
	h.creqs = h.creqs[:0]
}

// complete spins locally on the cell, combines if the round's combiner
// handed us the duty, and takes the served cell back as the next spare.
// It returns the result of an (op, arg) cell.
func (h *ccTransport) complete(cur *ccNode) uint64 {
	if cur.wait.Load() {
		h.wb.Reset()
		for cur.wait.Load() {
			h.wb.Wait()
		}
	}
	if !cur.completed {
		h.combine(cur)
	}
	h.node = cur
	return cur.ret
}

// combine is the combiner: walk the chain starting at our own cell,
// collecting each run of published requests into a reusable batch and
// executing it as one DispatchBatch (chunked at ccRunCap). Cells release
// after their run executes — followers wait for the run, the
// flat-combining trade for amortizing the dispatch indirection. MaxOps
// counts requests, so a run cell that would take the round past it ends
// the round and inherits the duty; our own cell is always served whole.
func (h *ccTransport) combine(cur *ccNode) {
	c := h.c
	tmp := cur
	var count, own int32
	// The condition reads MaxOps, on the tail's line, before each next
	// load: the delay that gives a publisher time to link (see CCSynch).
	for count < c.Opts.MaxOps {
		next := tmp.next.Load()
		if next == nil {
			break
		}
		n := int32(1)
		if tmp.run != nil {
			n = int32(len(tmp.run.reqs))
		}
		if count > 0 && count+n > c.Opts.MaxOps {
			break
		}
		if len(h.creqs) > 0 && len(h.creqs)+int(n) > ccRunCap {
			h.flushRun(cur)
		}
		if tmp == cur {
			own = n
		}
		count += n
		h.cells = append(h.cells, tmp)
		if tmp.run != nil {
			h.creqs = append(h.creqs, tmp.run.reqs...)
		} else {
			h.creqs = append(h.creqs, core.Req{Op: tmp.op, Arg: tmp.arg})
		}
		tmp = next
	}
	h.flushRun(cur)
	// Hand over: the owner of tmp wakes with completed=false and combines.
	tmp.wait.Store(false)
	c.rounds.Add(1)
	c.combined.Add(uint64(count - own))
}

// apply is the synchronous algorithm, one (op, arg) cell: publish, then
// complete. With nothing in flight the resident spare is home, so
// publish loans it out and complete takes the served cell in its place:
// the paper's node exchange.
func (h *ccTransport) apply(op, arg uint64) uint64 { return h.complete(h.publish(op, arg, nil)) }

// Ship implements core.Transport: the operation is deferred into the
// pipeline's pending run. Nothing is published until a completion is
// demanded.
func (h *ccTransport) Ship(uint64, uint64) (uint64, core.Shipped) { return 0, core.ShipDeferred }

// Next implements core.Transport: a CC-Synch handle owes nothing but its
// run.
func (h *ccTransport) Next(bool) (uint64, bool) { panic(core.NeverOwed) }

// Run publishes the pending run as ONE cell and completes it on the
// spot: a spin until a combiner has served the run, or, if the cell
// inherits the duty, a round that starts with the whole run. The run's
// results are in rets when it returns, none owed.
func (h *ccTransport) Run(reqs []core.Req, rets []uint64) (owed int) {
	h.run = ccRun{reqs: reqs, rets: rets}
	h.complete(h.publish(0, 0, &h.run))
	h.run = ccRun{} // the handle retains neither slice
	return 0
}

// Batch implements core.Transport: with nothing in flight, the batch is
// one run published and completed on the spot, no ticket at all.
func (h *ccTransport) Batch(_ *core.Pipe, reqs []core.Req, done []uint64) (ticketed int) {
	return h.Run(reqs, done)
}
