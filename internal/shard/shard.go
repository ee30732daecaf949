// Package shard scales the paper's single-serialization-point
// constructions out: a Router partitions a keyed object across N
// independent executors (any registered algorithm, mixed algorithms
// allowed), so each shard keeps the paper's single-server guarantees —
// every operation on that shard runs in mutual exclusion through one
// delegation point — while unrelated keys proceed in parallel on other
// shards.
//
// What the router deliberately does NOT provide: any ordering or
// atomicity across shards. Broadcast and Aggregate visit the shards one
// by one without a global lock; each per-shard step linearizes
// independently, so the result is a "fuzzy snapshot" (for monotonic
// objects it is bounded by the object's state at the start and end of
// the call — see DESIGN.md "Sharded delegation").
package shard

import (
	"errors"
	"fmt"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/core"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// KeyedObject is the batch-aware sharded execution contract, the
// sharded equivalent of core.Object: DispatchShardBatch executes a
// whole run of requests against shard's partition in one
// mutual-exclusion call of that shard's executor. Calls for different
// shards run concurrently, so partitions must not share mutable state;
// the aliasing rules are core.Object's (neither slice retained, no
// overlap, len(results) == len(reqs)).
type KeyedObject interface {
	DispatchShardBatch(shard int, reqs []core.Req, results []uint64)
}

// KeyedFunc adapts a bare function — one operation against shard's
// partition per call, always in that shard's mutual exclusion — into a
// KeyedObject that executes a batch by looping.
type KeyedFunc func(shard int, op, arg uint64) uint64

// DispatchShardBatch implements KeyedObject.
func (f KeyedFunc) DispatchShardBatch(shard int, reqs []core.Req, results []uint64) {
	for i, r := range reqs {
		results[i] = f(shard, r.Op, r.Arg)
	}
}

// shardView presents one shard's slice of a KeyedObject as a
// core.Object for that shard's executor.
type shardView struct {
	obj   KeyedObject
	shard int
}

func (v shardView) DispatchBatch(reqs []core.Req, results []uint64) {
	v.obj.DispatchShardBatch(v.shard, reqs, results)
}

// ExecFactory builds the executor protecting one shard around that
// shard's view of the object. Receiving the shard index lets callers
// mix algorithms across shards (ablation) or size shards differently.
type ExecFactory func(shard int, obj core.Object) (core.Executor, error)

// occSlot is a per-shard operation counter padded to a cache line so
// shards do not false-share occupancy updates.
type occSlot struct {
	occHot
	_ [pad.CacheLine - unsafe.Sizeof(occHot{})%pad.CacheLine]byte
}

type occHot struct{ ops atomic.Uint64 }

// Router routes keyed operations to one of nshards independent
// executors. Obtain one Handle per goroutine from NewHandle; the handle
// lazily opens one executor handle per shard it actually touches.
type Router struct {
	part   Partitioner
	execs  []core.Executor
	occ    []occSlot
	closed atomic.Bool
}

// NewObjectRouter builds a router over nshards executors made by f,
// executing against the batch-aware obj: every run a shard's executor
// forms reaches obj as one DispatchShardBatch call for that shard.
// Keys route with part (nil selects Fibonacci). Executors already
// built are closed again if a later shard's factory fails.
func NewObjectRouter(nshards int, obj KeyedObject, part Partitioner, f ExecFactory) (*Router, error) {
	if nshards <= 0 {
		return nil, fmt.Errorf("shard: NewObjectRouter(%d): shard count must be positive: %w",
			nshards, core.ErrBadOption)
	}
	if obj == nil || f == nil {
		return nil, fmt.Errorf("shard: NewObjectRouter needs an object and an executor factory")
	}
	if part == nil {
		part = Fibonacci
	}
	r := &Router{
		part:  part,
		execs: make([]core.Executor, nshards),
		occ:   make([]occSlot, nshards),
	}
	for s := 0; s < nshards; s++ {
		ex, err := f(s, shardView{obj: obj, shard: s})
		if err != nil {
			for _, built := range r.execs[:s] {
				built.Close()
			}
			return nil, fmt.Errorf("shard: building executor for shard %d: %w", s, err)
		}
		r.execs[s] = ex
	}
	return r, nil
}

// Shards returns the shard count.
func (r *Router) Shards() int { return len(r.execs) }

// ShardFor returns the shard index key routes to.
func (r *Router) ShardFor(key uint64) int {
	s := r.part(key, len(r.execs))
	if s < 0 || s >= len(r.execs) {
		// A misbehaving Partitioner must not crash the router or skew
		// traffic onto shard 0; reduce into range deterministically.
		s = int(uint(s) % uint(len(r.execs)))
	}
	return s
}

// NewHandle returns a per-goroutine routing handle. Like every executor
// in the repository it fails with ErrClosed after Close; per-shard
// handle exhaustion (ErrTooManyHandles) surfaces later, from the Apply
// that first touches the exhausted shard.
func (r *Router) NewHandle() (*Handle, error) {
	if r.closed.Load() {
		return nil, core.ErrClosed
	}
	return &Handle{r: r, hs: make([]core.Handle, len(r.execs))}, nil
}

// Close shuts every shard's executor down (fan-out). It is idempotent —
// each underlying Close is idempotent, including shards whose executor
// was already closed directly — and every shard is closed even when an
// earlier one fails: the per-shard errors are aggregated with
// errors.Join (each wrapped with its shard index), so errors.Is still
// finds the sentinels. As on every executor, an operation in flight or
// issued afterwards executes, on a shard whose handle it has already
// opened, and fails with ErrClosed on one it has not.
func (r *Router) Close() error {
	r.closed.Store(true)
	var errs []error
	for s, e := range r.execs {
		if err := e.Close(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", s, err))
		}
	}
	return errors.Join(errs...)
}

// Err implements the Executor contract's fault probe across the fan-out:
// it reports the first poisoned shard's *PoisonError (wrapped with its
// shard index), or nil when every shard is healthy. One shard's fault
// does not poison its siblings — unrelated keys keep executing — but
// the router surfaces it so callers can tear the whole object down.
func (r *Router) Err() error {
	for s, e := range r.execs {
		if err := e.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// Poison implements core.Poisonable by fanning the fault out to every
// shard whose executor accepts it, so a caller-detected fault (or a
// sweep-runner timeout) condemns the whole sharded object at once.
func (r *Router) Poison(v any) {
	for _, e := range r.execs {
		if p, ok := e.(core.Poisonable); ok {
			p.Poison(v)
		}
	}
}

// CombiningStats sums the combining statistics of every shard whose
// executor is a core.StatsSource; ok is false when no shard's executor
// keeps them. Read it only at quiescence.
func (r *Router) CombiningStats() (rounds, combined uint64, ok bool) {
	for _, e := range r.execs {
		if s, isSource := e.(core.StatsSource); isSource {
			ro, co := s.Stats()
			rounds += ro
			combined += co
			ok = true
		}
	}
	return rounds, combined, ok
}

// PipelineCounters aggregates the shards whose executors keep pipeline
// counters (core.PipelineStats): stalls sum, the maximum depth is the
// max across shards, and shards without counters contribute nothing. ok
// is false when no shard's executor keeps them — distinguishing
// "measured and unstalled" from "nothing measures" (mirroring
// CombiningStats). Read only at pipeline quiescence, like the
// per-executor counters.
func (r *Router) PipelineCounters() (submitStalls, maxDepth uint64, ok bool) {
	for _, e := range r.execs {
		if p, isSource := e.(core.PipelineStats); isSource {
			st, d := p.Pipeline()
			submitStalls += st
			if d > maxDepth {
				maxDepth = d
			}
			ok = true
		}
	}
	return submitStalls, maxDepth, ok
}

// TelemetrySnapshot aggregates the shards' telemetry into one merged
// snapshot; ok is false when no shard carries an armed metric core.
// Shards built from one Options share a single *Telemetry, so the
// merge dedups by pointer identity — without that, an N-shard router
// would count every sample N times. Unlike the combining counters a
// telemetry snapshot may be taken at any time (merge-on-read,
// monotonic).
func (r *Router) TelemetrySnapshot() (telemetry.Snapshot, bool) {
	var (
		snap telemetry.Snapshot
		ok   bool
		seen map[*telemetry.Telemetry]bool
	)
	for _, e := range r.execs {
		src, isSource := e.(core.TelemetrySource)
		if !isSource {
			continue
		}
		t := src.Telemetry()
		if t == nil || seen[t] {
			continue
		}
		if seen == nil {
			seen = make(map[*telemetry.Telemetry]bool, len(r.execs))
		}
		seen[t] = true
		snap = snap.Merge(t.Snapshot())
		ok = true
	}
	return snap, ok
}

// Occupancy returns a snapshot of how many operations each shard has
// been handed — the skew profile of the workload. Apply counts an
// operation when it completes, Submit and Post when they submit. It may
// be read concurrently with operations (each element is an atomic
// load).
func (r *Router) Occupancy() []uint64 {
	out := make([]uint64, len(r.occ))
	for i := range r.occ {
		out[i] = r.occ[i].ops.Load()
	}
	return out
}

// Handle routes operations on behalf of one goroutine. It is not safe
// for concurrent use — like every Handle in the repository, obtain one
// per goroutine.
//
// Beyond the blocking Apply, the handle exposes the executors'
// submit/complete pipeline across shards: Submit routes a request and
// returns a Ticket without waiting, Wait redeems it, and MultiApply
// submits a whole batch of keyed operations — one SubmitBatch per
// touched shard — before waiting on any, so requests landing on
// different shards execute concurrently instead of serializing through
// one round trip after another. Completion is FIFO per (handle, shard);
// nothing is guaranteed across shards.
type Handle struct {
	r  *Router
	hs []core.Handle // lazily opened, one per touched shard

	// MultiApply's scratch, reused across calls (the handle is
	// single-goroutine, so the buffers never alias a live call). Per
	// key: its shard, its argument, and — once grouped — its request and
	// the input index that request came from. Per shard: where its group
	// ends in maReqs (it starts where the previous shard's ends) and the
	// group's ticket.
	maShards  []int
	maArgs    []uint64
	maReqs    []core.Req
	maInput   []int
	maEnds    []int
	maTickets []core.Ticket
}

// Ticket identifies one outstanding asynchronous operation submitted
// through a routing Handle; redeem it with the same handle's Wait
// exactly once.
type Ticket struct {
	shard int
	t     core.Ticket
}

// Shard returns the shard the ticket's operation was routed to.
func (t Ticket) Shard() int { return t.shard }

// shardHandle lazily opens the executor handle for shard.
func (h *Handle) shardHandle(shard int) (core.Handle, error) {
	if shard < 0 || shard >= len(h.hs) {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", shard, len(h.hs))
	}
	eh := h.hs[shard]
	if eh == nil {
		var err error
		if eh, err = h.r.execs[shard].NewHandle(); err != nil {
			return nil, err
		}
		h.hs[shard] = eh
	}
	return eh, nil
}

// Apply routes (op, arg) to key's shard and executes it there in mutual
// exclusion. The error is non-nil only when lazily opening the shard's
// executor handle fails (ErrClosed after Close, ErrTooManyHandles when
// the shard's MaxThreads is exhausted); the sentinels propagate exactly
// as the executor returned them, so callers test with errors.Is.
func (h *Handle) Apply(key, op, arg uint64) (uint64, error) {
	return h.ApplyShard(h.r.ShardFor(key), op, arg)
}

// ApplyShard is Apply with an explicit shard index, for callers that
// route themselves. A poisoned shard surfaces as its *PoisonError
// (errors.Is(err, ErrPoisoned)) instead of silently returning the
// poisoned zero.
func (h *Handle) ApplyShard(shard int, op, arg uint64) (uint64, error) {
	eh, err := h.shardHandle(shard)
	if err != nil {
		return 0, err
	}
	v := eh.Apply(op, arg)
	if err := eh.Err(); err != nil {
		return 0, fmt.Errorf("shard %d: %w", shard, err)
	}
	h.r.occ[shard].ops.Add(1)
	return v, nil
}

// Err reports the first poisoned shard's *PoisonError across the whole
// router (not just shards this handle has touched), or nil.
func (h *Handle) Err() error { return h.r.Err() }

// Submit routes (op, arg) to key's shard and submits it there without
// waiting for the result; redeem the ticket with Wait. Errors are
// Apply's (lazy handle opening) — a successfully submitted operation
// cannot fail.
func (h *Handle) Submit(key, op, arg uint64) (Ticket, error) {
	return h.SubmitShard(h.r.ShardFor(key), op, arg)
}

// SubmitShard is Submit with an explicit shard index.
func (h *Handle) SubmitShard(shard int, op, arg uint64) (Ticket, error) {
	eh, err := h.shardHandle(shard)
	if err != nil {
		return Ticket{}, err
	}
	t, err := eh.Submit(op, arg)
	if err != nil {
		return Ticket{}, err
	}
	h.r.occ[shard].ops.Add(1)
	return Ticket{shard: shard, t: t}, nil
}

// Wait blocks until t's operation has executed on its shard and
// returns the result. Tickets may be waited out of submission order;
// each exactly once: like every core.Handle, Wait on a ticket that is
// not outstanding panics — including one for a shard this handle never
// opened (another routing handle's ticket, or the zero Ticket).
func (h *Handle) Wait(t Ticket) uint64 {
	if t.shard < 0 || t.shard >= len(h.hs) || h.hs[t.shard] == nil {
		panic(core.TicketMisuse)
	}
	return h.hs[t.shard].Wait(t.t)
}

// Post routes a result-less operation to key's shard fire-and-forget;
// completion is observed collectively through Flush.
func (h *Handle) Post(key, op, arg uint64) error {
	shard := h.r.ShardFor(key)
	eh, err := h.shardHandle(shard)
	if err != nil {
		return err
	}
	if err := eh.Post(op, arg); err != nil {
		return err
	}
	h.r.occ[shard].ops.Add(1)
	return nil
}

// Flush blocks until every operation submitted through this handle has
// executed on its shard, banking unwaited Submit results for their
// Wait and discarding Post results.
func (h *Handle) Flush() {
	for _, eh := range h.hs {
		if eh != nil {
			eh.Flush()
		}
	}
}

// MultiApply executes (op, args[i]) on keys[i]'s shard for every i and
// returns the results in input order. The operations are grouped by
// destination shard (stable within a group) and every touched shard
// receives its group as ONE SubmitBatch before any result is waited
// for. Operations routed to different shards therefore overlap wherever
// the construction can leave a batch owed (MP-SERVER, HYBCOMB's
// registered requests), and on every construction a shard's
// group is one mutual-exclusion run where a sequence of Apply calls
// would be one per key: a lock executor takes its lock once per group,
// a combiner executes the group as its round's own run, an MP-SERVER
// shard receives a group that fits the handle's window as one request
// message, and the object sees a single DispatchShardBatch. args may be nil (every operation
// gets argument 0); otherwise len(args) must equal len(keys). When a
// shard refuses its group — its handle cannot be opened, or the shard
// is poisoned — the groups already submitted are waited out before the
// error returns, so the handle is left with nothing in flight;
// Occupancy counts the keys of submitted groups only.
func (h *Handle) MultiApply(op uint64, keys, args []uint64) ([]uint64, error) {
	if args != nil && len(args) != len(keys) {
		return nil, fmt.Errorf("shard: MultiApply: %d keys but %d args", len(keys), len(args))
	}
	return h.multiApply(op, len(keys), func(i int) (key, arg uint64) {
		if args != nil {
			arg = args[i]
		}
		return keys[i], arg
	})
}

// multiApply is MultiApply over any representation of the n keyed
// operations: at(i) is input i's key and argument. Everything but the
// returned slice lives in the handle's scratch.
func (h *Handle) multiApply(op uint64, n int, at func(i int) (key, arg uint64)) ([]uint64, error) {
	if n == 0 {
		return []uint64{}, nil
	}
	if n == 1 { // nothing to group or overlap
		key, arg := at(0)
		v, err := h.Apply(key, op, arg)
		if err != nil {
			return nil, err
		}
		return []uint64{v}, nil
	}
	if cap(h.maShards) < n {
		h.maShards = make([]int, n)
		h.maArgs = make([]uint64, n)
		h.maReqs = make([]core.Req, n)
		h.maInput = make([]int, n)
	}
	if h.maEnds == nil {
		h.maEnds = make([]int, len(h.hs))
		h.maTickets = make([]core.Ticket, len(h.hs))
	}
	// A counting sort over the shard histogram (stable, no comparison
	// sort): ends holds the group sizes, then the group starts, and —
	// each start advancing as its group fills — finally the group ends.
	shards, args, ends := h.maShards[:n], h.maArgs[:n], h.maEnds
	clear(ends)
	for i := range shards {
		key, arg := at(i)
		s := h.r.ShardFor(key)
		shards[i], args[i] = s, arg
		ends[s]++
	}
	sum := 0
	for s, c := range ends {
		ends[s] = sum
		sum += c
	}
	reqs, input := h.maReqs[:n], h.maInput[:n]
	for i, s := range shards {
		reqs[ends[s]] = core.Req{Op: op, Arg: args[i]}
		input[ends[s]] = i
		ends[s]++
	}

	start := 0
	for s, end := range ends {
		if end == start {
			continue
		}
		eh, err := h.shardHandle(s)
		if err == nil {
			h.maTickets[s], err = eh.SubmitBatch(reqs[start:end])
		}
		if err != nil {
			h.collect(s, nil)
			return nil, err
		}
		h.r.occ[s].ops.Add(uint64(end - start))
		start = end
	}
	out := make([]uint64, n)
	h.collect(len(ends), out)
	// A shard poisoned mid-flight completed its submissions with zeros;
	// surface the fault rather than hand back silently-wrong results.
	if err := h.r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// collect waits out the groups multiApply submitted to the shards below
// upto, storing each result at its input index when out is non-nil.
func (h *Handle) collect(upto int, out []uint64) {
	pos := 0
	for s, end := range h.maEnds[:upto] {
		eh, first := h.hs[s], h.maTickets[s]
		for start := pos; pos < end; pos++ {
			v := eh.Wait(first.Offset(pos - start))
			if out != nil {
				out[h.maInput[pos]] = v
			}
		}
	}
}

// Broadcast executes (op, arg) on every shard in ascending shard order
// and returns the per-shard results. There is no global lock: each
// shard's step linearizes independently, and operations on other
// shards may interleave between steps.
func (h *Handle) Broadcast(op, arg uint64) ([]uint64, error) {
	out := make([]uint64, len(h.hs))
	for s := range h.hs {
		v, err := h.ApplyShard(s, op, arg)
		if err != nil {
			return nil, err
		}
		out[s] = v
	}
	return out, nil
}

// Aggregate is Broadcast folded with +: the sum of (op, arg) applied on
// every shard, for global reads such as a sharded counter's total.
// Each per-shard read is linearizable, so for monotonic state the sum
// is bounded by the object's value when Aggregate began and its value
// when it returned (and successive Aggregates from one goroutine
// observe non-decreasing sums); it is not an atomic snapshot.
func (h *Handle) Aggregate(op, arg uint64) (uint64, error) {
	var sum uint64
	for s := range h.hs {
		v, err := h.ApplyShard(s, op, arg)
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}
