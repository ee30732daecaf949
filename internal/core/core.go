// Package core implements the paper's two message-passing constructions
// for executing contended critical sections — MP-SERVER (§4.1) and
// HYBCOMB (§4.2, Algorithm 1) — as a native Go library, together with
// its baselines: the MCS lock executor, the adaptive hybrid, and the
// two pure-shared-memory constructions, CC-SYNCH (Fatourou &
// Kallimanis, PPoPP'12), the most efficient shared-memory combining
// construction, and SHM-SERVER, a simplified RCL (Lozi et al., USENIX
// ATC'12) where a server thread polls per-client cache-line
// channels. It owns the Executor contract plus the algorithm registry
// that the root hybsync package re-exports.
//
// On the TILE-Gx the request/response traffic rides the hardware User
// Dynamic Network; in this library it rides bounded lock-free message
// queues (package mpq) with the same interface contract (asynchronous
// bounded send with back-pressure, blocking receive, FIFO). Combiner
// identity in HybComb is managed with sync/atomic operations on shared
// pointers, exactly mirroring Algorithm 1's CAS/FAA/SWAP structure.
//
// Both constructions execute operations described by an opcode and one
// 64-bit argument against an Object — the paper's §5.2 optimization of
// shipping "a unique opcode of the CS" instead of a function pointer,
// which lets the servicing thread's dispatch inline the critical
// sections. The contract is batch-aware (Object.DispatchBatch executes
// a whole drained run in one mutual-exclusion call); a bare function
// still works everywhere via the Func adapter.
//
// Usage (through the registry; hybsync.NewObject re-exports
// core.NewObject):
//
//	ctr := uint64(0)
//	hc, err := core.NewObject("hybcomb", core.Func(func(op, arg uint64) uint64 {
//		old := ctr
//		ctr++ // safe: the object runs in mutual exclusion
//		return old
//	}), core.WithMaxThreads(64))
//	h, err := hc.NewHandle() // one per goroutine
//	prev := h.Apply(0, 0)    // executes the CS
//	_ = hc.Close()
package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hybsync/internal/telemetry"
)

// Executor is the common contract of all critical-section constructions
// in this repository (MPServer, HybComb, Hybrid, LockExecutor, CCSynch,
// SHMServer). Every construction shares one lifecycle, implemented once
// in Shell: NewHandle hands out per-goroutine capabilities until
// MaxThreads is exhausted or the executor is closed, and Close is
// idempotent and safe to call exactly like any other — even on
// constructions that own no background resources.
//
// Close versus Poison: Close is the orderly exit — it drains or
// completes whatever is still in flight (every construction guarantees
// that a ticket submitted before Close remains redeemable with Wait
// after it), detaches a server construction from its server loop, and
// seals the executor against new handles. Poison (see Poisonable) is
// the fault exit — a terminal latch, tripped by a panic escaping
// Object.DispatchBatch on the servicing path or set explicitly, after
// which the object is never invoked again and all machinery keeps
// running with zero results so no waiter is left hanging. The two
// compose: Close on a poisoned executor still performs its shutdown and
// reports the *PoisonError.
type Executor interface {
	// NewHandle returns a per-goroutine handle. Each goroutine that
	// submits operations must use its own Handle. It fails with
	// ErrTooManyHandles once MaxThreads handles exist, with ErrClosed
	// after Close, and with the *PoisonError once poisoned.
	NewHandle() (Handle, error)

	// Close releases any background resources (a server construction's
	// place on its pooled server loop) and fails subsequent NewHandle
	// calls. It is idempotent. It takes nothing else away: every
	// operation submitted before Close stays redeemable, and one issued
	// on an existing handle after Close, or racing it, executes and
	// never hangs — on a server construction whose loop has let the
	// executor go, the issuing thread serves it. On a poisoned executor
	// Close still shuts down and returns the *PoisonError.
	Close() error

	// Err reports the executor's fault state: nil while healthy, the
	// *PoisonError (wrapping ErrPoisoned) once a servicing-path panic
	// or an explicit Poison latched the terminal poisoned state.
	Err() error
}

// Handle submits operations on behalf of one goroutine. The contract
// is a submit/complete pipeline: Submit enqueues an operation and
// returns a Ticket, Wait redeems the ticket for the result, and Apply
// is the trivial Submit+Wait composition for callers that want the
// classic blocking critical section. Submissions through one handle
// execute — and complete — in submission order (per-handle FIFO);
// nothing is guaranteed about ordering across handles.
//
// Asynchrony is about overlap, not non-blocking submission: Submit may
// block on transport back-pressure (a full request queue) or on
// combiner duty (a submission that finds QueueCap operations in flight
// first settles the oldest, which may hand the pending run over and
// serve a combining round). How much genuinely overlaps depends on the
// construction — the MCS lock, the hybrid in both modes, HYBCOMB,
// CC-SYNCH and MP-SERVER defer the whole window to the first completion
// demanded — a Wait, a Flush, a blocking call behind it, or the
// QueueCap-th pending operation — and execute it as ONE run: under one
// acquisition, as one combining round's own run after registering what
// an open round still takes, as one chain cell a combiner serves whole,
// or as one request message the server answers with one reply; the
// hybrid's run takes the lock's path or the chain's, whichever mode is
// current when it is demanded; SHM-SERVER completes every submission
// immediately.
//
// Pipe is the one implementation: every construction's NewHandle
// returns a *Pipe over its own Transport, and SyncHandle adapts a bare
// function the same way, so the contract below is stated — and tested
// — once. The deferred window is the Pipe's too: one pending run per
// handle, which a deferring transport only executes.
type Handle interface {
	// Apply executes (op, arg) in mutual exclusion and returns the
	// result, exactly as Submit followed by Wait.
	Apply(op, arg uint64) uint64

	// Submit enqueues (op, arg) for execution in mutual exclusion and
	// returns a ticket redeemable with Wait. It may block for
	// back-pressure or combiner duty but does not wait for the
	// operation's result — nor promise that it has executed before a
	// completion is demanded. The error is reserved for transports that
	// can fail to accept a submission; the built-in constructions always
	// return nil.
	Submit(op, arg uint64) (Ticket, error)

	// Wait blocks until the operation identified by t has executed and
	// returns its result. Tickets may be waited out of submission order;
	// each ticket must be waited exactly once: Wait — like TryWait and
	// WaitTimeout — on a ticket that is not outstanding (redeemed,
	// issued by another handle, never issued) panics.
	Wait(t Ticket) uint64

	// Post submits a result-less operation fire-and-forget: it executes
	// in mutual exclusion, in submission order with the handle's other
	// operations, and its result is discarded. Completion is observed
	// collectively through Flush (or any later same-handle Wait, by
	// FIFO); on a lock, hybrid, HybComb, CC-Synch or MP-SERVER handle
	// that is also when it executes, unless QueueCap operations are
	// pending first.
	Post(op, arg uint64) error

	// Flush blocks until every operation submitted through this handle
	// has executed, banking the results of not-yet-waited Submit tickets
	// for their Wait and discarding Post results. Every handle with
	// outstanding submissions must be flushed (or fully waited) before
	// its executor is closed.
	Flush()

	// SubmitBatch is the split-phase batch: it enqueues every request of
	// reqs, in order, behind the handle's earlier submissions, and
	// returns one ticket for the lot — reqs[i]'s result is redeemed with
	// Wait(t.Offset(i)), each offset exactly once and in any order, under
	// the rules of any other ticket (Flush banks them; TryWait and
	// WaitTimeout apply). An empty batch issues nothing and its ticket
	// redeems nothing. The handle reads reqs only until SubmitBatch
	// returns. On a poisoned executor it fails fast with the *PoisonError
	// and no ticket is issued.
	//
	// Semantically it is Submit once per request, but the construction
	// ships the batch its own way, as few DispatchBatch runs as it can,
	// and what overlaps with the caller is what the construction can
	// overlap: MP-SERVER with no deferred run pending leaves the whole
	// batch owed (one request message, or one per stretch the window has
	// room for), so a caller that submits to several executors before
	// waiting on any has them all working at once; a lock executor — and
	// the hybrid in lock mode — with nothing in flight runs the whole
	// batch under ONE acquisition before it returns, every result
	// banked, and CC-SYNCH — and the hybrid in delegation mode — puts it
	// on the chain as one cell and completes that before it returns; HYBCOMB with no deferred run owed leaves
	// the requests it could register owed and, once a request fails
	// registration, executes the entire rest as one combining round's own
	// run; behind pending submissions of any of these, the batch joins
	// the handle's deferred run; SHM-SERVER's
	// one request slot makes it a loop of round trips. Like Submit it
	// may block for back-pressure — a batch longer than QueueCap settles
	// its own oldest requests as it goes — or for combiner duty.
	SubmitBatch(reqs []Req) (Ticket, error)

	// ApplyBatch executes every request of reqs in mutual exclusion, in
	// order, and blocks until the whole batch has executed, filling
	// results[i] with reqs[i]'s result: SubmitBatch, then Wait on every
	// offset, in one call. A nil results discards the values (the batch
	// still completes before ApplyBatch returns); otherwise len(results)
	// must be at least len(reqs). The handle reads reqs and writes
	// results only until ApplyBatch returns and retains neither slice;
	// reqs and results must not overlap.
	//
	// The batch executes after the handle's earlier submissions, in
	// batch order, through as few DispatchBatch calls as the
	// construction can make of it (see SubmitBatch); the part a lock or
	// a combiner executes on the spot is written straight into results
	// and costs no ticket bookkeeping at all.
	ApplyBatch(reqs []Req, results []uint64)

	// TryWait is the non-blocking Wait: if t's operation has completed,
	// it redeems the ticket and returns the result exactly like Wait;
	// otherwise it returns ErrNotReady and the ticket remains
	// outstanding and redeemable. Its bound covers waiting for other
	// threads to serve what the handle has already handed over, not the
	// run the handle itself must hand over: a TryWait that demands the
	// handle's deferred run executes it, because nobody else will. A
	// lock handle acquires like any critical section, so it waits out
	// the lock's current holders; a CC-SYNCH handle puts the run on the
	// chain as one cell and completes it, spinning until a combiner
	// serves the cell or running the round the cell is handed; a hybrid
	// handle does one or the other, whichever mode is current. None of
	// them reports ErrNotReady. A HybComb handle ships its run, so what
	// registers with an open round is then ErrNotReady until served.
	// Like Wait, calling it with a redeemed or foreign ticket panics. On a poisoned executor a
	// completed ticket redeems with the *PoisonError alongside the
	// value — results produced after the fault are zeros.
	TryWait(t Ticket) (uint64, error)

	// WaitTimeout is Wait bounded by d: it blocks until t's operation
	// completes and redeems the ticket, or returns ErrWaitTimeout after
	// d with the ticket still outstanding and redeemable (retry, or
	// fall back to Wait). The bound covers waiting on other threads; a
	// run this handle itself must hand over (a lock handle's deferred
	// run, a CC-SYNCH or hybrid handle's run cell and the round it may
	// inherit) is not interrupted.
	// The poison semantics are TryWait's.
	WaitTimeout(t Ticket, d time.Duration) (uint64, error)

	// Err reports the executor's fault state, exactly as Executor.Err:
	// nil while healthy, the *PoisonError once poisoned. After
	// poisoning, Apply returns zeros, Submit and Post fail fast with
	// the *PoisonError, and already-submitted tickets remain waitable
	// (completing with zeros for operations the object never executed).
	Err() error
}

// StatsSource is implemented by the combining constructions (HybComb,
// CCSynch) and the lock-backed ones (LockExecutor, Hybrid), whose
// acquisitions are rounds. Stats must be read only at pipeline
// quiescence: every handle with submissions outstanding has been
// flushed (or fully waited) and no new operation is issued until the
// read returns.
//
// The quiescence rule, which PipelineStats and RetryStats share: the
// counters are plain words, each written only by its handle's
// goroutine, so a read is race-free, and exact, only for a reader that
// has synchronized with every writer. Each handle's goroutine must have
// returned from its last call — its Flush, its last Wait, or a Close
// it made itself — and that return must happen before the read: the
// reader is that goroutine, or it has waited for it (WaitGroup.Wait, a
// channel receive). A read while handles run is a data race.
//
// Counter semantics (the canonical statement — DESIGN.md and benchfmt
// comments defer here): rounds counts combining rounds, i.e.
// mutual-exclusion acquisitions that serviced at least one operation;
// combined counts operations completed inside a round owned by another
// thread. Under blocking Apply every operation is either a round
// owner's single own op or combined by someone else, so
//
//	rounds + combined == total ops   (blocking Apply, every source)
//
// One rule covers everything else: a round holding n of its owner's
// operations counts once, so wherever one round can hold several,
//
//	rounds + combined <= total ops
//
// That is an ApplyBatch (or router MultiApply), whose whole batch is one
// round's own run, and it is a pipelined handle of any source: every
// one defers its window (mcs-lock, HybComb, CC-SYNCH, the hybrid in
// both modes), and its deferred run is the same batch spelled one call
// at a time, one round of n own operations (combined == 0 on the lock,
// where nobody executes on another's behalf). The counters then mix units (rounds
// count runs, combined counts operations), which is why measure.Run
// strips both from batch-path and bench=async records instead of
// publishing numbers that invite the scalar reading.
type StatsSource interface {
	Stats() (rounds, combined uint64)
}

// TelemetrySource is implemented by every construction: Telemetry
// returns the metric core attached with WithTelemetry, or nil when
// disarmed. Unlike Stats, a telemetry Snapshot may be taken at any
// time — it is merge-on-read and monotonic, drifting only by records
// still in flight.
type TelemetrySource interface {
	Telemetry() *telemetry.Telemetry
}

// PipelineStats is implemented by the pipelining constructions
// (MPServer, HybComb, CCSynch, LockExecutor, Hybrid) and aggregated by
// the shard router; it exposes the backpressure counters of the
// submission pipeline.
// SubmitStalls counts submissions that found the handle's pipeline
// full and had to absorb or settle an older operation before they
// could proceed; MaxDepth is the deepest in-flight window any handle
// has reached. Like Stats, read only at pipeline quiescence (every
// handle flushed), by a reader that has synchronized with every
// handle's goroutine (see StatsSource).
type PipelineStats interface {
	Pipeline() (submitStalls, maxDepth uint64)
}

// RetryStats is implemented by the executors whose mutual exclusion is
// the MCS lock (LockExecutor, and the hybrid, whose lock mode is one):
// Retries reports, across all handles, the acquisitions that queued
// behind a predecessor — a retry is one acquisition that queued. It is
// the lock-side contention gauge the adaptive hybrid executor promotes
// on. Like Stats, read only at quiescence, by a reader that has
// synchronized with every handle's goroutine (see StatsSource).
type RetryStats interface {
	Retries() uint64
}

// AdaptiveStats is implemented by mode-switching executors (the hybrid
// construction): Transitions reports how many times the executor
// promoted (lock → delegation) and demoted (delegation → lock) since
// construction. Monotonic and safe to read at any time.
type AdaptiveStats interface {
	Transitions() (promotions, demotions uint64)
}

// Lifecycle and registry errors. NewHandle and registry failures wrap
// these sentinels, so callers test with errors.Is.
var (
	// ErrTooManyHandles reports NewHandle calls beyond MaxThreads.
	ErrTooManyHandles = errors.New("too many handles")
	// ErrClosed reports use of an executor after Close.
	ErrClosed = errors.New("executor closed")
	// ErrUnknownAlgorithm reports a New with an unregistered name.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")
	// ErrDuplicateAlgorithm reports a Register with a taken name.
	ErrDuplicateAlgorithm = errors.New("algorithm already registered")
	// ErrBadOption reports an option explicitly set to an invalid value
	// (non-positive MaxThreads, MaxOps or QueueCap, a negative
	// StallTimeout) or a non-positive shard count. It is
	// detected at New time, not when the bad value would later
	// misbehave.
	ErrBadOption = errors.New("bad option")
)

// MustHandle returns a new handle from e, panicking on failure. It is
// the thin escape hatch for benchmarks and examples where handle
// exhaustion is a programming error rather than a runtime condition.
func MustHandle(e Executor) Handle {
	h, err := e.NewHandle()
	if err != nil {
		panic(err)
	}
	return h
}

// Options configures the constructions. Callers build it with the
// functional With* options; the zero value is valid for every
// constructor (each fills the paper's evaluation defaults).
// Explicitly setting a sizing option to a non-positive value, or
// StallTimeout to a negative one, is rejected with ErrBadOption when
// the Options are built (leaving an option unset selects its default).
type Options struct {
	// MaxThreads bounds how many Handles an executor hands out (default
	// 128), whatever the construction.
	MaxThreads int
	// MaxOps is the combining bound MAX_OPS of HybComb and CC-Synch
	// (default 200, the paper's evaluation setting).
	MaxOps int32
	// QueueCap is the per-thread message-queue capacity in messages
	// (default 39 ≈ the TILE-Gx's 118-word buffer divided by 3-word
	// requests). It also bounds a handle's submission pipeline: a
	// handle never keeps more than QueueCap operations in flight, so a
	// server or combiner can never block on a full response queue.
	QueueCap int
	// StallTimeout arms the stall watchdog on the construction's wait
	// loops (a client awaiting its response or cell service, a HybComb
	// successor awaiting its predecessor's round): a wait that reaches
	// the backoff sleep phase and makes no progress for this long
	// reports once through internal/backoff's stall handler — by
	// default a goroutine dump to stderr. 0 (the default) disables the
	// watchdog; disabled waits never read a clock.
	StallTimeout time.Duration
	// Telemetry attaches a metric core (sampled blocking-call latency,
	// per-dispatch run length, poison/stall/submit-stall counters — see
	// internal/telemetry). nil, the default, disarms recording: the
	// disarmed hot path is one nil-receiver check per site.
	Telemetry *telemetry.Telemetry

	// err records the first invalid With* value; buildOptions reports it.
	err error
}

// Option mutates Options; see WithMaxThreads and friends.
type Option func(*Options)

// reject records the first explicitly-set invalid option value, with
// the rule it breaks.
func (o *Options) reject(opt string, v any, rule string) {
	if o.err == nil {
		o.err = fmt.Errorf("core: %s(%v): value must %s: %w", opt, v, rule, ErrBadOption)
	}
}

// WithMaxThreads bounds how many handles an executor hands out.
func WithMaxThreads(n int) Option {
	return func(o *Options) {
		if n <= 0 {
			o.reject("WithMaxThreads", n, "be positive")
			return
		}
		o.MaxThreads = n
	}
}

// WithMaxOps sets the combining bound MAX_OPS (HybComb, CC-Synch).
// Values beyond the int32 range clamp to an effectively unbounded
// math.MaxInt32 rather than wrapping.
func WithMaxOps(n int) Option {
	return func(o *Options) {
		if n <= 0 {
			o.reject("WithMaxOps", n, "be positive")
			return
		}
		if n > math.MaxInt32 {
			n = math.MaxInt32
		}
		o.MaxOps = int32(n)
	}
}

// WithQueueCap sets the per-thread message-queue capacity in messages.
func WithQueueCap(n int) Option {
	return func(o *Options) {
		if n <= 0 {
			o.reject("WithQueueCap", n, "be positive")
			return
		}
		o.QueueCap = n
	}
}

// WithStallTimeout arms the stall watchdog: a construction wait loop
// that makes no progress for d reports once (by default a goroutine
// dump to stderr — see backoff.SetStallHandler). Pick d well above any
// legitimate service time; the watchdog is a diagnostic, not a
// timeout — the wait continues after reporting. A negative d is
// rejected with ErrBadOption; 0 (the default) disables the watchdog.
func WithStallTimeout(d time.Duration) Option {
	return func(o *Options) {
		if d < 0 {
			o.reject("WithStallTimeout", d, "not be negative")
			return
		}
		o.StallTimeout = d
	}
}

// WithTelemetry attaches t as the executor's metric core: blocking
// calls (Apply, Wait, ApplyBatch) record sampled latency, every
// DispatchBatch run records its length, and poison-latch trips,
// stall-watchdog firings and full-pipeline submit stalls are counted.
// One Telemetry may serve several executors — the shard router builds
// every shard from the same Options, so all shards aggregate into one
// core. A nil t is allowed and leaves telemetry disarmed (the
// default).
func WithTelemetry(t *telemetry.Telemetry) Option {
	return func(o *Options) { o.Telemetry = t }
}

// buildOptions folds opts over the zero Options, rejects explicitly-set
// invalid values with an error wrapping ErrBadOption, and fills
// defaults.
func buildOptions(opts ...Option) (Options, error) {
	var o Options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.err != nil {
		return Options{}, o.err
	}
	o.fill()
	return o, nil
}

func (o *Options) fill() {
	if o.MaxThreads <= 0 {
		o.MaxThreads = 128
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 200
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 39
	}
}

// runCap bounds one DispatchBatch run that a server or combiner
// collects from other threads: the message-passing constructions'
// receive buffers hold at most this many requests (batchLen), and
// CC-Synch's combiner serves a round in runs of at most this many.
const runCap = 256

// batchLen sizes a server/combiner receive buffer: up to MaxOps
// requests are drained per wakeup, capped at runCap so an effectively
// unbounded MaxOps does not allocate an enormous buffer.
func (o *Options) batchLen() int { return min(int(o.MaxOps), runCap) }
