package core

import (
	"fmt"
	"sync/atomic"
	"time"
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
// Asynchronous submission maps onto the algorithm naturally: a Submit
// that wins a registration ticket ships its request and returns — the
// response arrives on the thread's response queue, collected by Wait
// through a ticketed receive. A Submit that fails registration promotes
// the thread to combiner exactly like Apply and completes its own
// operation (plus the round it serves) before returning; the result is
// banked for Wait. Round ordering makes completion per-handle FIFO: a
// combiner serves every ticket of its round before releasing its
// successor, so responses from earlier rounds always precede those
// from later ones.
type HybComb struct {
	PoisonLatch
	opts Options
	obj  Object

	lastReg  atomic.Pointer[hcNode]
	departed atomic.Pointer[hcNode]

	// Per thread, created by NewHandle: inbox[id] holds the requests
	// registered with id as combiner (drained by the owner), resp[id]
	// the responses to the owner's own registered requests. Another
	// thread learns id only from a node's threadID — stored by the
	// owner, published by its lastReg CAS — or from a request the owner
	// sent, so the slots' writes are ordered before every read.
	inbox  []mpq.Queue
	resp   []mpq.Queue
	nextID atomic.Int32
	closed atomic.Bool

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
	opts.fill()
	h := &HybComb{opts: opts, obj: obj}
	h.Algo = "hybcomb"
	h.Tel = opts.Telemetry
	h.inbox = make([]mpq.Queue, opts.MaxThreads)
	h.resp = make([]mpq.Queue, opts.MaxThreads)
	// The initial node {⊥, MAX_OPS, true}: full, so the first thread
	// fails registration and promotes itself; done, so it proceeds
	// immediately.
	init := &hcNode{}
	init.threadID.Store(-1)
	init.nOps.Store(opts.MaxOps)
	init.done.Store(true)
	h.lastReg.Store(init)
	h.departed.Store(init)
	return h
}

// NewHandle implements Executor.
func (h *HybComb) NewHandle() (Handle, error) {
	if err := h.Err(); err != nil {
		return nil, fmt.Errorf("core: hybcomb: %w", err)
	}
	if h.closed.Load() {
		return nil, fmt.Errorf("core: hybcomb: %w", ErrClosed)
	}
	id := h.nextID.Add(1) - 1
	if int(id) >= h.opts.MaxThreads {
		return nil, errTooManyHandles(h.opts.MaxThreads)
	}
	h.inbox[id] = h.opts.newMpscQueue()
	// Responses to one thread come from whichever thread combines each
	// round — serialized in time, but many producers over the queue's
	// lifetime, hence Mpsc rather than Spsc.
	h.resp[id] = h.opts.newMpscQueue()
	n := &hcNode{}
	n.threadID.Store(id)
	n.nOps.Store(h.opts.MaxOps) // parked: nobody can register with it
	bl := h.opts.batchLen()
	tk := mpq.NewTicketed(h.resp[id])
	tk.Arm(h.opts.StallTimeout, "hybcomb: client awaiting combiner response")
	tk.OnStall(h.opts.Telemetry.StallHook())
	hd := &hcHandle{
		h:       h,
		id:      id,
		myNode:  n,
		batch:   make([]mpq.Msg, bl),
		runReqs: make([]Req, bl),
		runRets: make([]uint64, bl),
		tk:      tk,
		rec:     h.opts.Telemetry.Recorder(),
		wb:      backoff.Armed(h.opts.StallTimeout, "hybcomb: combiner awaiting predecessor round"),
	}
	// Set on the stored waiter: Armed returns by value, so a hook set
	// on the temporary would be lost.
	hd.wb.SetOnStall(h.opts.Telemetry.StallHook())
	return hd, nil
}

// Close implements Executor. HybComb owns no background goroutine —
// every in-flight registered request is served by its round's combiner
// (a thread inside an older Apply/Submit call) before that call
// returns, so at Close time outstanding results already sit on their
// response rings and tickets stay redeemable with Wait. Closing only
// fails future NewHandle calls; it is idempotent and reports the
// *PoisonError when poisoned.
func (h *HybComb) Close() error {
	h.closed.Store(true)
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

// Telemetry implements TelemetrySource.
func (h *HybComb) Telemetry() *telemetry.Telemetry { return h.opts.Telemetry }

// hcSlot records where an outstanding Submit's result will come from:
// the response stream position of a registered request, or the value a
// combiner-path submission already produced.
type hcSlot struct {
	local bool
	pos   uint64 // response stream position (registered path)
	val   uint64 // banked result (combiner path)
}

type hcHandle struct {
	h      *HybComb
	id     int32
	myNode *hcNode

	batch   []mpq.Msg // combiner-side receive buffer
	runReqs []Req     // combiner-side batch-dispatch scratch
	runRets []uint64
	one     [1]Req // scalar combiner-path scratch
	oneRet  [1]uint64
	posBuf  []uint64 // ApplyBatch position scratch
	drop    []uint64 // discarded-results scratch for ApplyBatch(reqs, nil)

	tk    *mpq.Ticketed // ticketed receive over h.resp[id]
	dt    DepthTracker
	rec   *telemetry.Recorder
	seq   uint64            // next ticket sequence number
	slots map[uint64]hcSlot // outstanding Submit tickets (nil until first Submit)

	// wb is the watched waiter for the combiner's wait on its
	// predecessor round, constructed once per handle and Reset per
	// promotion so the per-operation path never zeroes the watchdog
	// state.
	wb backoff.Watched
}

// Apply is apply_op of Algorithm 1 (lines 6-43): register or combine,
// then block for the result. The uncontended path does no pipeline
// bookkeeping at all — a combiner-path Apply returns its result
// directly, a registered Apply waits for the next response stream
// position.
func (hd *hcHandle) Apply(op, arg uint64) uint64 {
	if hd.h.Poisoned() {
		return 0
	}
	// One latency sample = one blocking call, whichever path it takes
	// (registered round-trip or a served round as the combiner).
	sampled := hd.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	registered, ret := hd.submitOrCombine(op, arg)
	if registered {
		ret = hd.tk.WaitFor(hd.tk.Issue()).W[0]
	}
	if sampled {
		hd.rec.Latency(t0)
	}
	return ret
}

// acquire is lines 8-20 of Algorithm 1: try to register (op, arg) with
// the current combiner. True means registered — the request is shipped
// and its response will arrive on our response queue. False means we
// promoted ourselves to combiner, waited out our predecessor's round,
// and now own the round: the operation was NOT shipped and the caller
// must execute it through combineBatch.
func (hd *hcHandle) acquire(op, arg uint64) bool {
	h := hd.h
	for {
		lastReg := h.lastReg.Load() // line 9
		// Line 11: FAA on the combiner's ticket counter.
		if lastReg.nOps.Add(1)-1 < h.opts.MaxOps {
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

// submitOrCombine registers (op, arg) or serves a round with it as the
// combiner's own single operation (registered=false, ret = its result).
func (hd *hcHandle) submitOrCombine(op, arg uint64) (registered bool, ret uint64) {
	if hd.acquire(op, arg) {
		return true, 0
	}
	hd.one[0] = Req{Op: op, Arg: arg}
	hd.combineBatch(hd.one[:], hd.oneRet[:])
	return false, hd.oneRet[0]
}

// serveRun executes one drained run of registered requests as a single
// DispatchBatch call and scatters the responses to the requesters'
// queues.
func (hd *hcHandle) serveRun(run []mpq.Msg) {
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
func (hd *hcHandle) combineBatch(own []Req, results []uint64) {
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
	totalOps := hd.myNode.nOps.Swap(h.opts.MaxOps)
	if totalOps > h.opts.MaxOps {
		totalOps = h.opts.MaxOps
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

// makeRoom bounds the pipeline at QueueCap in-flight registered
// requests, so a combiner can never block sending into our response
// queue.
func (hd *hcHandle) makeRoom() {
	if hd.tk.InFlight() >= hd.h.opts.QueueCap {
		hd.h.ps.NoteStall()
		hd.h.opts.Telemetry.NoteSubmitStall()
		hd.tk.Absorb()
	}
}

// Submit implements Handle. The registered path is genuinely
// asynchronous (the request is shipped, the combiner's response is
// collected by Wait); the combiner path completes on the spot and banks
// the result.
func (hd *hcHandle) Submit(op, arg uint64) (Ticket, error) {
	if err := hd.h.Err(); err != nil {
		return Ticket{}, err
	}
	hd.makeRoom()
	registered, ret := hd.submitOrCombine(op, arg)
	if hd.slots == nil {
		hd.slots = make(map[uint64]hcSlot)
	}
	t := Ticket{seq: hd.seq}
	hd.seq++
	if registered {
		hd.slots[t.seq] = hcSlot{pos: hd.tk.Issue()}
		hd.dt.Note(&hd.h.ps, hd.tk.InFlight())
	} else {
		hd.slots[t.seq] = hcSlot{local: true, val: ret}
	}
	return t, nil
}

// Wait implements Handle.
func (hd *hcHandle) Wait(t Ticket) uint64 {
	// Sample both completion paths: a banked combiner-path result is a
	// near-zero Wait, but it is the latency the client observed — the
	// async leg's distribution must show it, not silently omit it.
	sampled := hd.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	s, ok := hd.slots[t.seq]
	if !ok {
		panic("core: hybcomb: Wait on a ticket that is not outstanding (already waited, or issued by another handle)")
	}
	delete(hd.slots, t.seq)
	v := s.val
	if !s.local {
		v = hd.tk.WaitFor(s.pos).W[0]
	}
	if sampled {
		hd.rec.Latency(t0)
	}
	return v
}

// TryWait implements Handle: a combiner-path ticket is always ready
// (its result was banked at Submit); a registered ticket is ready once
// its response arrived on the stream.
func (hd *hcHandle) TryWait(t Ticket) (uint64, error) {
	s, ok := hd.slots[t.seq]
	if !ok {
		panic("core: hybcomb: Wait on a ticket that is not outstanding (already waited, or issued by another handle)")
	}
	if s.local {
		delete(hd.slots, t.seq)
		return s.val, hd.h.Err()
	}
	m, ready := hd.tk.TryWaitFor(s.pos)
	if !ready {
		return 0, ErrNotReady
	}
	delete(hd.slots, t.seq)
	return m.W[0], hd.h.Err()
}

// WaitTimeout implements Handle.
func (hd *hcHandle) WaitTimeout(t Ticket, d time.Duration) (uint64, error) {
	s, ok := hd.slots[t.seq]
	if !ok {
		panic("core: hybcomb: Wait on a ticket that is not outstanding (already waited, or issued by another handle)")
	}
	if s.local {
		delete(hd.slots, t.seq)
		return s.val, hd.h.Err()
	}
	m, ready := hd.tk.WaitForTimeout(s.pos, d)
	if !ready {
		return 0, ErrWaitTimeout
	}
	delete(hd.slots, t.seq)
	return m.W[0], hd.h.Err()
}

// Err implements Handle.
func (hd *hcHandle) Err() error { return hd.h.Err() }

// Post implements Handle: fire-and-forget. A registered request's
// response is marked discarded on the completion stream; a
// combiner-path Post completed already and needs no bookkeeping.
func (hd *hcHandle) Post(op, arg uint64) error {
	if err := hd.h.Err(); err != nil {
		return err
	}
	hd.makeRoom()
	registered, _ := hd.submitOrCombine(op, arg)
	if registered {
		hd.tk.Discard(hd.tk.Issue())
		hd.dt.Note(&hd.h.ps, hd.tk.InFlight())
	}
	return nil
}

// Flush implements Handle: absorb every in-flight response. Banked
// combiner-path results stay redeemable; registered results move into
// the ticketed receive's buffer for their Wait.
func (hd *hcHandle) Flush() { hd.tk.Flush() }

// posLocal marks an ApplyBatch entry resolved on the combiner path (its
// result is already in results); every real stream position is below it
// because positions count from zero.
const posLocal = ^uint64(0)

// ApplyBatch implements Handle: walk the batch registering requests
// with the current combiner; the first request that fails registration
// promotes us, and the batch's entire remaining run becomes the round's
// own run — one DispatchBatch for all of it (line 23 generalized). The
// registered prefix's responses are collected afterwards in stream
// order. A batch therefore costs at most one promotion handshake, with
// the dispatch indirection amortized across the whole remainder.
func (hd *hcHandle) ApplyBatch(reqs []Req, results []uint64) {
	if len(reqs) == 0 {
		return
	}
	if hd.h.Poisoned() {
		if results != nil {
			zeroResults(results[:len(reqs)])
		}
		return
	}
	if len(reqs) == 1 { // a 1-batch is exactly the scalar critical section
		v := hd.Apply(reqs[0].Op, reqs[0].Arg)
		if results != nil {
			results[0] = v
		}
		return
	}
	if cap(hd.posBuf) < len(reqs) {
		hd.posBuf = make([]uint64, len(reqs))
	}
	// One latency sample covers the whole batch call.
	sampled := hd.rec.Sample()
	var t0 time.Time
	if sampled {
		t0 = time.Now()
	}
	pos := hd.posBuf[:len(reqs)]
	res := results
	if res == nil {
		// The combiner path needs somewhere to write. A dedicated
		// discard buffer, NOT runRets: combineBatch's serveRun reuses
		// runRets for drained-run responses while the own-run results
		// are still live in res.
		if cap(hd.drop) < len(reqs) {
			hd.drop = make([]uint64, len(reqs))
		}
		res = hd.drop[:len(reqs)]
	}

	i := 0
	for i < len(reqs) {
		hd.makeRoom()
		if hd.acquire(reqs[i].Op, reqs[i].Arg) {
			pos[i] = hd.tk.Issue()
			hd.dt.Note(&hd.h.ps, hd.tk.InFlight())
			i++
			continue
		}
		// Combiner: the rest of the batch is the round's own run.
		hd.combineBatch(reqs[i:], res[i:len(reqs)])
		for j := i; j < len(reqs); j++ {
			pos[j] = posLocal
		}
		break
	}
	for j, p := range pos {
		if p == posLocal {
			continue
		}
		v := hd.tk.WaitFor(p).W[0]
		if results != nil {
			results[j] = v
		}
	}
	if sampled {
		hd.rec.Latency(t0)
	}
}
