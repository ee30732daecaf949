package core

import (
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// HybComb is the paper's Algorithm 1 as a native Go construction.
// Combiner identity lives in shared memory: last_registered_combiner is
// an atomic pointer CASed by threads promoting themselves to combiner;
// each combiner node carries an n_ops ticket counter (FAA to register a
// request, SWAP to close the round) and a combining_done flag its
// successor spins on. Requests and responses travel through per-thread
// message queues, so while the combiner does not change the data path is
// identical to MPServer — no shared-memory handshake per operation.
//
// The inboxes are mpq.Mpsc queues (any thread sends; only the owner
// receives) and the combiner drains them with batched receives: both
// the eager drain (lines 25-28) and the granted-ticket drain (lines
// 34-37) consume a run of published requests per queue synchronization —
// and each drained run executes as ONE DispatchBatch call against the
// object, with the responses scattered to the requesters' queues after
// the call. The combiner's own operations batch the same way: a
// combiner-path ApplyBatch hands its whole remaining run to the round
// as a single DispatchBatch (Algorithm 1's line 23 generalized from one
// own operation to a run of them).
//
// Responses travel on a second per-thread queue, separate from the
// inbox. With the synchronous Apply contract the inbox could carry
// both (a thread was never a combiner and a waiting client at once);
// with asynchronous submission a thread may promote itself to combiner
// while responses to its earlier registered requests are still in
// flight, and the combiner's request drain must not swallow them.
//
// Asynchronous submission defers, as on a lock handle (see
// hcTransport.Run): Submit and Post join the pipeline's pending run and
// register nothing. When a completion is demanded — a Wait, a bounded
// wait, a Flush, a blocking call behind the window, or the QueueCap-th
// pending operation — the whole run ships the way a batch does:
// requests register with the open round while it takes them, their
// responses owed on the thread's response queue, and the first request
// that fails registration promotes the thread, so the rest of the run
// is its round's own run, one DispatchBatch. A window thus costs one
// promotion handshake instead of one per operation. Round ordering
// makes completion per-handle FIFO: a combiner serves every ticket of
// its round before releasing its successor, so the registered prefix's
// responses precede the own run, which precedes everything later.
//
// The struct is a whole number of cache lines so that the allocator
// places it on a line boundary: lastReg and the round counters are
// written every round beside words every registration reads, and how
// they fall on lines would otherwise change from one executor to the
// next (at 240 bytes it did: four placements, 10 % apart with two
// threads — CHANGES.md PR 18).
//
//hyblint:padded
type HybComb struct {
	hybCombHot
	_ [pad.CacheLine - unsafe.Sizeof(hybCombHot{})%pad.CacheLine]byte
}

// hybCombHot is HybComb's state; see HybComb for the padding.
type hybCombHot struct {
	Shell
	obj Object

	lastReg  atomic.Pointer[hcNode]
	departed atomic.Pointer[hcNode]

	// Per thread, created by NewHandle: inbox[id] holds the requests
	// registered with id as combiner (drained by the owner), resp[id]
	// the responses to the owner's own registered requests. Another
	// thread learns id only from a node's threadID — stored by the
	// owner, published by its lastReg CAS — or from a request the owner
	// sent, so the slots' writes are ordered before every read.
	inbox []*mpq.Mpsc
	resp  []*mpq.Mpsc

	// Stats counts combining activity (read at pipeline quiescence).
	rounds   atomic.Uint64
	combined atomic.Uint64
	ps       PipeCounters
}

// hcNode is Algorithm 1's Node. Each of the three fields is written and
// spun on by different threads at different times (registering threads
// FAA nOps while the successor spins on done), so each lives on its own
// cache line; the pads are sized from the fields themselves and the
// layout is machine-verified by TestHybCombNodeLayout and hyblint.
//
//hyblint:padded
type hcNode struct {
	threadID atomic.Int32
	_        [pad.CacheLine - unsafe.Sizeof(atomic.Int32{})%pad.CacheLine]byte
	nOps     atomic.Int32
	_        [pad.CacheLine - unsafe.Sizeof(atomic.Int32{})%pad.CacheLine]byte
	done     atomic.Bool
	_        [pad.CacheLine - unsafe.Sizeof(atomic.Bool{})%pad.CacheLine]byte
}

// NewHybComb creates the structure. Unlike MPServer there is no
// background goroutine: threads combine for each other on demand, an
// idle HybComb consumes no resources, and Close only seals the
// executor against new handles.
func NewHybComb(obj Object, opts Options) *HybComb {
	h := &HybComb{}
	h.obj = obj
	h.Init("hybcomb", opts)
	h.inbox = make([]*mpq.Mpsc, h.Opts.MaxThreads)
	h.resp = make([]*mpq.Mpsc, h.Opts.MaxThreads)
	// The initial node {⊥, MAX_OPS, true}: full, so the first thread
	// fails registration and promotes itself; done, so it proceeds
	// immediately.
	init := &hcNode{}
	init.threadID.Store(-1)
	init.nOps.Store(h.Opts.MaxOps)
	init.done.Store(true)
	h.lastReg.Store(init)
	h.departed.Store(init)
	return h
}

// NewHandle implements Executor.
func (h *HybComb) NewHandle() (Handle, error) {
	t, err := h.newTransport()
	if err != nil {
		return nil, err
	}
	return NewPipe(t.spec()), nil
}

// newTransport admits one more thread and builds its transport; the
// hybrid executor puts its own in front of its backend's instead of
// taking a handle.
func (h *HybComb) newTransport() (*hcTransport, error) {
	id, err := h.Admit()
	if err != nil {
		return nil, err
	}
	h.inbox[id] = mpq.NewMpsc(h.Opts.QueueCap)
	// Responses to one thread come from whichever thread combines each
	// round — serialized in time, but many producers over the queue's
	// lifetime, hence Mpsc rather than Spsc.
	h.resp[id] = mpq.NewMpsc(h.Opts.QueueCap)
	n := &hcNode{}
	n.threadID.Store(int32(id))
	n.nOps.Store(h.Opts.MaxOps) // parked: nobody can register with it
	bl := h.Opts.batchLen()
	t := &hcTransport{hcTransportHot: hcTransportHot{
		h:       h,
		id:      int32(id),
		myNode:  n,
		resp:    h.resp[id],
		batch:   make([]mpq.Msg, bl),
		runReqs: make([]Req, bl),
		runRets: make([]uint64, bl),
		rec:     h.Opts.Telemetry.Recorder(),
	}}
	h.Arm(&t.wb, "hybcomb: combiner awaiting predecessor round")
	h.Arm(&t.respWB, "hybcomb: client awaiting combiner response")
	return t, nil
}

// spec is the handle over t: at most QueueCap operations in flight,
// whether pending in the pipeline's run or owed on t's response queue.
func (t *hcTransport) spec() PipeSpec {
	h := t.h
	return PipeSpec{Transport: t, Apply: t.apply, Latch: &h.PoisonLatch, Rec: t.rec,
		Counters: &h.ps, Depth: h.Opts.QueueCap, Waiter: &t.respWB}
}

// Close implements Executor. HybComb owns no background goroutine —
// every in-flight registered request is served by its round's combiner
// (a thread inside an older Apply/Submit call) before that call
// returns, so at Close time outstanding results already sit on their
// response rings, a handle's pending run still ships at the Wait or
// Flush that redeems it, and tickets stay redeemable. Closing only
// fails future NewHandle calls; it is idempotent and reports the
// *PoisonError when poisoned.
func (h *HybComb) Close() error {
	h.Seal()
	return h.Err()
}

// Stats returns the number of completed combining rounds and the total
// requests served by combiners for other threads. Read only at
// pipeline quiescence (every handle flushed or fully waited).
func (h *HybComb) Stats() (rounds, combined uint64) {
	return h.rounds.Load(), h.combined.Load()
}

// Pipeline implements PipelineStats.
func (h *HybComb) Pipeline() (submitStalls, maxDepth uint64) { return h.ps.Pipeline() }

// hcTransport is one thread's place in Algorithm 1: a registered
// request is a message to the round's combiner and its response comes
// back on the thread's response queue; a request that fails
// registration makes the thread the combiner and completes, with the
// rest of its run, inside the round it serves.
type hcTransportHot struct {
	h      *HybComb
	id     int32
	myNode *hcNode
	resp   *mpq.Mpsc // h.resp[id]

	batch   []mpq.Msg // combiner-side receive buffer
	runReqs []Req     // combiner-side batch-dispatch scratch
	runRets []uint64
	one     [1]Req // scalar combiner-path scratch
	oneRet  [1]uint64
	rec     *telemetry.Recorder

	// Watched waiters for the combiner's wait on its predecessor round
	// and the client's wait for a response, constructed once per handle
	// and Reset per wait so the per-operation path never zeroes the
	// watchdog state.
	wb, respWB backoff.Watched
}

// hcTransport rounds its state up to whole cache lines: handles of different
// threads are allocated side by side, and one thread's per-operation
// writes must not invalidate the line a neighbour reads its own from.
//
//hyblint:padded
type hcTransport struct {
	hcTransportHot
	_ [pad.CacheLine - unsafe.Sizeof(hcTransportHot{})%pad.CacheLine]byte
}

// apply is apply_op of Algorithm 1 (lines 6-43): register or combine,
// then block for the result.
func (hd *hcTransport) apply(op, arg uint64) uint64 {
	ret, how := hd.shipNow(op, arg)
	if how == ShipOwed {
		ret, _ = hd.Next(true)
	}
	return ret
}

// combineOne serves the round we own with (op, arg) as its single own
// operation and returns the result.
func (hd *hcTransport) combineOne(op, arg uint64) uint64 {
	hd.one[0] = Req{Op: op, Arg: arg}
	hd.combineBatch(hd.one[:], hd.oneRet[:])
	return hd.oneRet[0]
}

// acquire is lines 8-20 of Algorithm 1: try to register (op, arg) with
// the current combiner. True means registered — the request is shipped
// and its response will arrive on our response queue. False means we
// promoted ourselves to combiner, waited out our predecessor's round,
// and now own the round: the operation was NOT shipped and the caller
// must execute it through combineBatch.
func (hd *hcTransport) acquire(op, arg uint64) bool {
	h := hd.h
	for {
		lastReg := h.lastReg.Load() // line 9
		// Line 11: FAA on the combiner's ticket counter.
		if lastReg.nOps.Add(1)-1 < h.Opts.MaxOps {
			// Lines 13-14: registered; ship the request. The response
			// arrives on our response queue once the combiner serves it.
			h.inbox[lastReg.threadID.Load()].Send(mpq.Words3(uint64(hd.id), op, arg))
			return true
		}
		// Line 17: promote ourselves to combiner.
		if h.lastReg.CompareAndSwap(lastReg, hd.myNode) {
			hd.myNode.nOps.Store(0)   // line 18
			if !lastReg.done.Load() { // lines 19-20
				hd.wb.Reset()
				for !lastReg.done.Load() {
					hd.wb.Wait()
				}
			}
			return false
		}
	}
}

// Ship implements Transport: (op, arg) is deferred into the pipeline's
// pending run. Nothing is registered — the run ships when a completion
// is demanded, and the pipeline's in-flight bound (QueueCap) is what
// demands one at the latest.
func (hd *hcTransport) Ship(uint64, uint64) (uint64, Shipped) { return 0, ShipDeferred }

// shipNow is the eager Ship the hybrid's delegated side keeps, so that
// the run lengths its demotion signal reads measure combining rather
// than one client's deferral: register (op, arg) with the current
// combiner, the response owed, or serve a round with it as the
// combiner's own single operation, done on the spot. Round ordering
// keeps the two kinds in per-handle FIFO: a combiner waits out its
// predecessor's round, which served every request this thread
// registered earlier, before it executes anything.
func (hd *hcTransport) shipNow(op, arg uint64) (uint64, Shipped) {
	if hd.acquire(op, arg) {
		return 0, ShipOwed
	}
	return hd.combineOne(op, arg), ShipDone
}

// Next implements Transport: the oldest response to a registered
// request, off the thread's queue.
func (hd *hcTransport) Next(block bool) (uint64, bool) {
	return mpq.RecvWord(hd.resp, &hd.respWB, block)
}

// Run ships the pending run, whose window slots are open already: each
// request registers with the current combiner until one fails
// registration and promotes us, and the rest of the run is our round's
// own run — one DispatchBatch (line 23 generalized), its results
// written to rets[i:]. It returns how many requests registered, whose
// responses are owed on the queue. Shipping may wait out a predecessor
// round even for a TryWait — combiner duty, like a lock handle's
// acquisition — but never for another thread to serve a registered
// request.
func (hd *hcTransport) Run(reqs []Req, rets []uint64) (owed int) {
	for i, r := range reqs {
		if !hd.acquire(r.Op, r.Arg) {
			hd.combineBatch(reqs[i:], rets[i:])
			return i
		}
	}
	return len(reqs)
}

// serveRun executes one drained run of registered requests as a single
// DispatchBatch call and scatters the responses to the requesters'
// queues.
func (hd *hcTransport) serveRun(run []mpq.Msg) {
	h := hd.h
	reqs := hd.runReqs[:len(run)]
	for i, m := range run {
		reqs[i] = Req{Op: m.W[1], Arg: m.W[2]}
	}
	rets := hd.runRets[:len(run)]
	h.PoisonLatch.Dispatch(h.obj, reqs, rets)
	hd.rec.RunLen(len(run))
	for i, m := range run {
		h.resp[m.W[0]].Send(mpq.Word(rets[i]))
	}
}

// combineBatch is the combiner's half of apply_op (lines 23-43)
// generalized to a run of own operations: execute the own run as one
// DispatchBatch (line 23), serve the round batch-wise, hand the
// combiner role over. results receives the own run's results and must
// be len(own) long.
func (hd *hcTransport) combineBatch(own []Req, results []uint64) {
	h := hd.h
	var opsCompleted int32

	// Line 23 generalized: the combiner's own run executes first, in one
	// mutual-exclusion call. A panic in the object poisons the latch
	// and the round carries on — the drains below still run, the round
	// still closes and hands over, so no registered thread is stranded.
	h.PoisonLatch.Dispatch(h.obj, own, results)
	hd.rec.RunLen(len(own))

	// Lines 25-28: eagerly drain the queue while requests keep arriving;
	// postponing the closing SWAP increases the combining potential.
	// Every drained run is one queue synchronization and one
	// DispatchBatch.
	mine := h.inbox[hd.id]
	buf := hd.batch
	for {
		n := mine.TryRecvBatch(buf)
		if n == 0 {
			break
		}
		hd.serveRun(buf[:n])
		opsCompleted += int32(n)
	}

	// Lines 30-32: close the round; the old counter value is the number
	// of tickets granted.
	totalOps := hd.myNode.nOps.Swap(h.Opts.MaxOps)
	if totalOps > h.Opts.MaxOps {
		totalOps = h.Opts.MaxOps
	}

	// Lines 34-37: serve the granted tickets that are still in flight,
	// again batch-wise. The batch is capped at the outstanding ticket
	// count so the drain can never consume a request addressed to a
	// later round.
	for opsCompleted < totalOps {
		want := totalOps - opsCompleted
		if int(want) > len(buf) {
			want = int32(len(buf))
		}
		n := mine.RecvBatch(buf[:want])
		hd.serveRun(buf[:n])
		opsCompleted += int32(n)
	}

	// Lines 39-42: exchange nodes with the departed combiner, then
	// release our successor. We take the node the previous combiner
	// left behind — we were the thread spinning on it, so we are the
	// one thread entitled to reset its done flag.
	oldNode := hd.myNode
	hd.myNode = h.departed.Swap(oldNode)
	hd.myNode.done.Store(false)
	hd.myNode.threadID.Store(hd.id)
	oldNode.done.Store(true)

	h.rounds.Add(1)
	h.combined.Add(uint64(opsCompleted))
}

// Batch implements Transport: with no run pending it ships eagerly,
// walking the batch registering requests with the current combiner; the
// first request that fails registration promotes us, and the batch's
// entire remaining run becomes the round's own run — one DispatchBatch
// for all of it (line 23 generalized), written straight into done with
// no ticket at all. The registered prefix is ticketed and its responses
// are owed. A batch therefore costs at most one promotion handshake,
// with the dispatch indirection amortized across the whole remainder.
// done is never runRets: combineBatch's serveRun reuses runRets for
// drained-run responses while the own-run results are still live.
func (hd *hcTransport) Batch(p *Pipe, reqs []Req, done []uint64) (registered int) {
	for registered < len(reqs) {
		p.makeRoom()
		if !hd.acquire(reqs[registered].Op, reqs[registered].Arg) {
			// Combiner: the rest of the batch is the round's own run.
			hd.combineBatch(reqs[registered:], done[registered:])
			break
		}
		p.issue()
		registered++
	}
	return registered
}
