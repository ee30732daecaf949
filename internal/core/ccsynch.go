package core

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// CCSynch executes critical sections with the CC-Synch combining
// algorithm: threads SWAP their spare node onto a shared tail to publish
// a request, spin locally on their node's wait flag, and the thread
// whose wait clears with completed unset becomes the combiner, serving
// up to MaxOps requests along the list. The combiner walks its chain
// segment into a reusable request batch and executes each run as one
// DispatchBatch call against the object (chunked at runCap; a run cell
// is never split), releasing the served cells after the run — the
// dispatch analogue of the message-passing constructions' batched
// receives.
//
// Asynchronous submission defers, as on a lock handle (see
// ccTransport.Run): Submit and Post join the pipeline's pending run and
// publish nothing. When a completion is demanded the whole run is
// put on the chain as ONE cell that points at it — one tail SWAP, one cell and
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
//
// The tail pad makes the struct whole cache lines, so an executor is
// placed on a line by its size alone rather than by the size class it
// happens to fall in (TestCCSynchLineAligned).
type CCSynch struct {
	ccSynchHot
	_ [pad.CacheLine - unsafe.Sizeof(ccSynchHot{})%pad.CacheLine]byte
}

// ccSynchHot is CCSynch's state; see CCSynch for the field order and
// the padding.
type ccSynchHot struct {
	tail atomic.Pointer[ccNode]
	Shell
	obj Object
}

// ccNodeHot is a request cell's live fields: one (op, arg), or, when run
// is set, a handle's whole deferred run. Every thread spins on its own
// node's wait flag, so the enclosing ccNode rounds the cell up to one
// cache line (verified by TestNodeLayout) to keep separately-allocated
// nodes from false-sharing; run is one pointer rather than the run's two
// slice headers, which would take the cell to two lines.
//
// wait and next are the two fields another thread reads while the cell
// is on the chain. They are plain words with atomic accessors (waiting,
// release, link, linked) rather than atomic types, so that publish can
// write them plainly while the cell is still private — wait as a uint32
// and next as a pointer whose plain write keeps the compiler's write
// barrier.
type ccNodeHot struct {
	wait      uint32 // 1 while the owner must spin; cleared by release
	completed bool
	op        uint64
	arg       uint64
	ret       uint64
	run       *ccRun
	next      *ccNode // set by link
}

type ccNode struct {
	ccNodeHot
	_ [pad.CacheLine - unsafe.Sizeof(ccNodeHot{})%pad.CacheLine]byte
}

// waiting reports whether the cell's owner must still spin.
func (n *ccNode) waiting() bool { return atomic.LoadUint32(&n.wait) != 0 }

// release clears the cell's wait flag: its owner stops spinning, and
// sees every write made to the cell before the release.
func (n *ccNode) release() { atomic.StoreUint32(&n.wait, 0) }

// link publishes next as the cell after n, once n's request is filled.
func (n *ccNode) link(next *ccNode) {
	atomic.StorePointer((*unsafe.Pointer)(unsafe.Pointer(&n.next)), unsafe.Pointer(next))
}

// linked is the cell after n, or nil while none is linked.
func (n *ccNode) linked() *ccNode {
	return (*ccNode)(atomic.LoadPointer((*unsafe.Pointer)(unsafe.Pointer(&n.next))))
}

// ccRun is a deferred run as its cell publishes it: the requests, and
// where the combiner that serves the cell writes their results before it
// clears the cell's wait flag.
type ccRun struct {
	reqs []Req
	rets []uint64
}

// NewCCSynch creates the structure; Options.MaxOps is the combining
// bound and Options.QueueCap the per-handle in-flight bound.
func NewCCSynch(obj Object, o Options) *CCSynch {
	c := &CCSynch{ccSynchHot: ccSynchHot{obj: obj}}
	c.init("ccsynch", o)
	c.tail.Store(&ccNode{}) // initial dummy: wait=false, completed=false
	return c
}

// NewHandle implements Executor.
func (c *CCSynch) NewHandle() (Handle, error) {
	h, err := c.newTransport()
	if err != nil {
		return nil, err
	}
	p := c.handle(h.spec())
	h.cnt = &p.cnt
	return p, nil
}

// newTransport admits one more thread and builds its transport; the
// hybrid executor puts its own in front of its backend's instead of
// taking a handle.
func (c *CCSynch) newTransport() (*ccTransport, error) {
	if _, err := c.admit(); err != nil {
		return nil, err
	}
	h := &ccTransport{ccTransportHot: ccTransportHot{c: c, node: &ccNode{}, rec: c.Opts.Telemetry.Recorder()}}
	c.arm(&h.wb, "ccsynch: waiting for cell service")
	return h, nil
}

// spec is the handle over h: at most QueueCap operations pending in the
// pipeline's run, none ever owed.
func (h *ccTransport) spec() pipeSpec {
	c := h.c
	return pipeSpec{Transport: h, Apply: h.apply, Latch: &c.PoisonLatch, Rec: h.rec,
		Depth: c.Opts.QueueCap, Waiter: &h.wb}
}

// Stats returns combining rounds and requests combined for others (a
// round's first cell is its combiner's own and counts towards neither),
// summed over the handles' cells. Read only at pipeline quiescence
// (every handle flushed).
func (c *CCSynch) Stats() (rounds, combined uint64) { return c.totals().stats() }

// Pipeline implements PipelineStats.
func (c *CCSynch) Pipeline() (submitStalls, maxDepth uint64) { return c.totals().pipeline() }

// ccTransport is one thread's end of the chain. Its pipeline defers
// submissions into the pending run, and Run publishes that run as one
// cell and completes it on the spot, so the handle never leaves a cell
// on the chain that nobody spins on.
type ccTransportHot struct {
	c *CCSynch
	// node is the resident spare of the paper's node exchange: publish
	// swaps it onto the tail, and complete takes the served cell back in
	// its place.
	node *ccNode
	// run is what the handle's cell points at while a run is on the chain.
	run ccRun

	// Combiner-side batch scratch: the chain segment being served, its
	// requests and their results (chunked at runCap).
	cells []*ccNode
	creqs []Req
	crets []uint64

	rec *telemetry.Recorder
	cnt *counts // the handle's counter cell, where the rounds this thread combined count

	// wb is the watched waiter for cell-service spins, constructed once
	// per handle and Reset per wait loop so the per-operation path never
	// zeroes the watchdog state.
	wb backoff.Watched
}

// ccTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
type ccTransport struct {
	ccTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(ccTransportHot{})%pad.CacheLine]byte
}

// publish is the submission half of CC-Synch: swap the spare node onto
// the tail and fill the previous tail with our request, (op, arg) or
// run. The returned cell is the request's completion point.
//
// The spare is written plainly. It is private until the tail swap: the
// handle took it back from a cell whose release it observed, and every
// access by the combiner that released it happened before that
// release. Two threads reach it after the swap, and both through an
// atomic operation that follows the swap in this goroutine's order:
// the next publisher, whose own tail swap returns it and so observes
// ours, and a combiner, whose linked() load returns it and so observes
// our link store. Each therefore reads the three fields as written here
// (go.dev/ref/mem: an atomic operation observed by another is
// synchronized before it). The swap, the link store, and the release
// and hand-off stores stay atomic: each is what publishes a write to a
// thread that may already be reading the cell.
func (h *ccTransport) publish(op, arg uint64, run *ccRun) *ccNode {
	nextNode := h.node
	nextNode.wait = 1
	nextNode.completed = false
	nextNode.next = nil

	cur := h.c.tail.Swap(nextNode)
	cur.op = op
	cur.arg = arg
	cur.run = run
	cur.link(nextNode) // publish after filling the request
	return cur
}

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
			cell.release()
		}
	}
	h.cells = h.cells[:0]
	h.creqs = h.creqs[:0]
}

// complete spins locally on the cell, combines if the round's combiner
// handed us the duty, and takes the served cell back as the next spare.
// It returns the result of an (op, arg) cell.
func (h *ccTransport) complete(cur *ccNode) uint64 {
	if cur.waiting() {
		h.wb.Reset()
		for cur.waiting() {
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
// collecting each run of requests on the chain into a reusable batch and
// executing it as one DispatchBatch (chunked at runCap). Cells release
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
		next := tmp.linked()
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
		if len(h.creqs) > 0 && len(h.creqs)+int(n) > runCap {
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
			h.creqs = append(h.creqs, Req{Op: tmp.op, Arg: tmp.arg})
		}
		tmp = next
	}
	h.flushRun(cur)
	// Hand over: the owner of tmp wakes with completed=false and combines.
	tmp.release()
	h.cnt.round(uint64(count - own))
}

// apply is the synchronous algorithm, one (op, arg) cell: publish, then
// complete. With nothing in flight the resident spare is home, so
// publish loans it out and complete takes the served cell in its place:
// the paper's node exchange.
func (h *ccTransport) apply(op, arg uint64) uint64 { return h.complete(h.publish(op, arg, nil)) }

// Run implements Transport: the run — the pipeline's deferred
// window, or a batch with nothing in flight — goes on the chain as ONE cell
// and completed on the spot: a spin until a combiner has served the
// run, or, if the cell inherits the duty, a round that starts with the
// whole run. The run's results are in rets when it returns, none owed,
// so the window's room does not bound it.
func (h *ccTransport) Run(reqs []Req, rets []uint64, _ int) (owed int) {
	h.run = ccRun{reqs: reqs, rets: rets}
	h.complete(h.publish(0, 0, &h.run))
	h.run = ccRun{} // the handle retains neither slice
	return 0
}
