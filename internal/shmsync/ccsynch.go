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
// Asynchronous submission publishes the request cell without spinning:
// each outstanding operation holds its own node (pooled per handle, up
// to depth in flight), and completion — spinning on that node, and
// combining when the round's combiner handed us the duty — happens at
// Wait. The chain orders a handle's cells in submission order and
// combiners serve the chain in order, so completion is per-handle FIFO.
//
// Deferred combiner duty is the price of deferring completion: requests
// behind an unwaited cell that was handed the combiner role do not
// execute until that cell's handle calls Wait or Flush. Every submitted
// ticket must therefore eventually be waited or flushed — and draining
// several handles' pipelines from one goroutine should flush them
// concurrently, not sequentially, since one handle's unflushed cell can
// hold the duty another handle's Flush is spinning on.
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

// ccNodeHot is a request cell's live fields; every thread spins on its
// own node's wait flag, so the enclosing ccNode rounds the cell up to a
// whole number of cache lines (verified by TestNodeLayout) to keep
// separately-allocated nodes from false-sharing.
type ccNodeHot struct {
	wait      atomic.Bool
	completed bool
	op        uint64
	arg       uint64
	ret       uint64
	next      atomic.Pointer[ccNode]
}

//hyblint:padded
type ccNode struct {
	ccNodeHot
	_ [pad.CacheLine - unsafe.Sizeof(ccNodeHot{})%pad.CacheLine]byte
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
// goroutine — outstanding cells live on the shared chain and are
// settled by their handle's Wait/Flush (which also discharges dormant
// combiner duty), so tickets stay redeemable after Close. Closing only
// fails future NewHandle calls; it is idempotent and reports the
// *PoisonError when poisoned.
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

// ccTransport is one thread's end of the chain. Ship publishes a cell
// and leaves its completion owed; the owed cells wait in publication
// order, and Next completes the oldest — which is also what discharges
// combiner duty that cell may have inherited while nobody was waiting
// on it.
type ccTransportHot struct {
	c *CCSynch
	// node is the resident spare of the paper's node exchange (nil while
	// on loan to the chain), free the spares reclaimed beyond it, which
	// only a pipelining handle has. Routing the blocking round trip's
	// exchange through the slice too read contended-apply 10 % low.
	node *ccNode
	free []*ccNode

	// owed holds the published cells whose completion the pipeline has
	// not collected yet, oldest at head; the pipeline keeps at most
	// depth of them.
	owed []*ccNode
	head int

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

// takeSpare hands out a free node for the next swap onto the chain,
// growing the pool when every node is in flight.
func (h *ccTransport) takeSpare() *ccNode {
	if n := h.node; n != nil {
		h.node = nil
		return n
	}
	if k := len(h.free); k > 0 {
		n := h.free[k-1]
		h.free = h.free[:k-1]
		return n
	}
	return &ccNode{}
}

// publish is the submission half of CC-Synch: swap a spare node onto
// the tail and fill the previous tail with our request. The returned
// cell is the operation's completion point.
func (h *ccTransport) publish(op, arg uint64) *ccNode {
	nextNode := h.takeSpare()
	nextNode.wait.Store(true)
	nextNode.completed = false
	nextNode.next.Store(nil)

	cur := h.c.tail.Swap(nextNode)
	cur.op = op
	cur.arg = arg
	cur.next.Store(nextNode) // publish after filling the request
	return cur
}

// ccRunCap bounds one DispatchBatch run while combining, matching the
// message-passing constructions' receive-buffer cap: a chain of up to
// MaxOps cells is served in runs of at most this many.
const ccRunCap = 256

// flushRun executes the collected chain segment as one DispatchBatch
// and releases every served cell; the combiner's own cell cur is not
// released (its result is returned through myRet instead).
func (h *ccTransport) flushRun(cur *ccNode, myRet *uint64) {
	if len(h.cells) == 0 {
		return
	}
	if cap(h.crets) < len(h.cells) {
		h.crets = make([]uint64, len(h.cells))
	}
	rets := h.crets[:len(h.cells)]
	// Dispatch through the poison latch: a panicking object poisons the
	// executor and the run completes with zeros, so every cell in the
	// segment is still released and no follower spins forever.
	h.c.PoisonLatch.Dispatch(h.c.obj, h.creqs, rets)
	h.rec.RunLen(len(h.cells))
	for i, cell := range h.cells {
		if cell == cur {
			*myRet = rets[i]
			continue
		}
		cell.ret = rets[i]
		cell.completed = true
		cell.wait.Store(false)
	}
	h.cells = h.cells[:0]
	h.creqs = h.creqs[:0]
}

// completeCell spins locally on the cell and combines if the round's
// combiner handed us the duty; the caller owns the cell's reclaim.
func (h *ccTransport) completeCell(cur *ccNode) uint64 {
	c := h.c
	if cur.wait.Load() {
		h.wb.Reset()
		for cur.wait.Load() {
			h.wb.Wait()
		}
	}
	if cur.completed {
		return cur.ret
	}

	// Combiner: walk the chain starting at our own request, collecting
	// each run of published cells into a reusable batch and executing
	// it as one DispatchBatch (chunked at ccRunCap). Cells release
	// after their run executes — followers wait for the run, the
	// flat-combining trade for amortizing the dispatch indirection.
	tmp := cur
	var count int32
	var myRet uint64
	for count < c.Opts.MaxOps {
		next := tmp.next.Load()
		if next == nil {
			break
		}
		count++
		h.cells = append(h.cells, tmp)
		h.creqs = append(h.creqs, core.Req{Op: tmp.op, Arg: tmp.arg})
		if len(h.cells) == ccRunCap {
			h.flushRun(cur, &myRet)
		}
		tmp = next
	}
	h.flushRun(cur, &myRet)
	// Hand over: the owner of tmp wakes with completed=false and combines.
	tmp.wait.Store(false)
	c.rounds.Add(1)
	c.combined.Add(uint64(count - 1)) // the walk began at our own cell
	return myRet
}

// complete is the completion half of an asynchronous submission:
// completeCell plus returning the cell to the pool.
func (h *ccTransport) complete(cur *ccNode) uint64 {
	ret := h.completeCell(cur)
	if h.node == nil {
		h.node = cur // the served cell is the next spare
	} else {
		h.free = append(h.free, cur)
	}
	return ret
}

// apply is the synchronous algorithm: publish, then complete. The
// pipeline calls it only with nothing owed — with an older unwaited
// cell on the chain it would have to queue behind it, since that cell
// may hold the round's dormant combiner duty and spinning on a later
// one would wait for a combiner that never comes. With nothing owed
// the resident spare is home, so publish loans it out and complete
// takes the served cell in its place: the paper's node exchange.
func (h *ccTransport) apply(op, arg uint64) uint64 { return h.complete(h.publish(op, arg)) }

// Ship implements core.Transport: publish the cell, defer the spin (and
// any inherited combiner duty) to Next.
func (h *ccTransport) Ship(op, arg uint64) (uint64, core.Shipped) {
	if h.head > 0 && len(h.owed) == cap(h.owed) {
		// Slide the live cells down instead of letting append grow the
		// array: at most depth are ever owed.
		h.owed = h.owed[:copy(h.owed, h.owed[h.head:])]
		h.head = 0
	}
	h.owed = append(h.owed, h.publish(op, arg))
	return 0, core.ShipOwed
}

// Next implements core.Transport: complete the oldest owed cell.
// Without block it only does so once the cell's wait flag has cleared,
// so it never waits for another thread — but a cleared flag may mean
// inherited combining duty, which then runs to the end of its round.
func (h *ccTransport) Next(block bool) (uint64, bool) {
	cell := h.owed[h.head]
	if !block && cell.wait.Load() {
		return 0, false
	}
	h.head++
	return h.complete(cell), true
}

// Batch implements core.Transport: publish a cell per request —
// submission order, so the cells form a contiguous-per-handle chain
// segment — and leave every completion owed. Whichever cell inherits
// combiner duty serves the chain (our remaining cells included) through
// single DispatchBatch runs, so collecting the batch typically costs one
// spin-wait and one dispatch call instead of one per operation.
//
// A blocking batch with no cell owed needs no tickets: each chunk, at
// most the handle's depth bound, is published and completed right here,
// which keeps a cell's whole life at a publish and a completion (the
// window adds a quarter to that: 52 → 66 ns per request at 32). With
// cells owed the batch must queue behind them through the pipeline (the
// apply hazard).
func (h *ccTransport) Batch(p *core.Pipe, reqs []core.Req, done []uint64, blocking bool) int {
	if !blocking || p.InFlight() != 0 {
		return p.ShipAll(reqs)
	}
	depth := h.c.Opts.QueueCap
	for start := 0; start < len(reqs); start += depth {
		end := min(start+depth, len(reqs))
		for _, r := range reqs[start:end] {
			h.Ship(r.Op, r.Arg)
		}
		// Completing the first cell combines the whole published
		// segment (one DispatchBatch run); the rest wake completed.
		for i := start; i < end; i++ {
			done[i], _ = h.Next(true)
		}
	}
	return 0
}
