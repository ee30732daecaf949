package hybsync

import (
	"time"

	"hybsync/internal/core"
	"hybsync/internal/telemetry"

	// The constructions self-register with the algorithm registry from
	// their packages' init functions (core's own, the lock executors
	// included, come with the import above); linking shmsync here makes
	// every built-in algorithm available to NewObject through the bare
	// hybsync import.
	_ "hybsync/internal/shmsync"
)

// Req is one operation of a batch: opcode plus the single 64-bit
// argument.
type Req = core.Req

// Object is the batch-aware execution contract: DispatchBatch executes
// a whole run of requests in one mutual-exclusion call, filling
// results[i] with reqs[i]'s result. Constructions guarantee
// len(results) == len(reqs) and non-overlapping slices; the object
// must not retain either slice past the call (both buffers are
// reused). How runs form is per-construction — see DESIGN.md
// "Batch-aware dispatch".
type Object = core.Object

// Func adapts a bare func(op, arg uint64) uint64 — one operation per
// call, always invoked in mutual exclusion — into an Object that loops
// over the run; the conversion Func(f) is free.
type Func = core.Func

// Executor is the uniform contract of every critical-section
// construction: NewHandle hands out per-goroutine capabilities and
// Close (idempotent) releases background resources and seals the
// executor.
type Executor = core.Executor

// Handle submits operations on behalf of one goroutine; obtain one per
// goroutine from Executor.NewHandle. The contract is a submit/complete
// pipeline: Submit(op, arg) returns a Ticket without waiting for the
// result, Wait(Ticket) redeems it, Post is fire-and-forget, Flush
// drains the pipeline, Apply is the blocking Submit+Wait composition,
// SubmitBatch submits a whole []Req run for one ticket whose offsets
// (Ticket.Offset) redeem the requests one by one, and ApplyBatch is its
// blocking composition — both batched as far as the construction allows
// (one lock acquisition, one combining round, one pipelined server
// run). Submissions through one handle complete in submission order
// (per-handle FIFO); nothing is ordered across handles. See DESIGN.md "Asynchronous delegation" for ticket
// semantics and "Batch-aware dispatch" for per-construction batch
// formation.
type Handle = core.Handle

// Ticket identifies one outstanding asynchronous operation; it is
// meaningful only to the Handle that issued it and must be redeemed
// with that handle's Wait exactly once (or settled by Flush). The
// ticket of a SubmitBatch names the batch's first request; t.Offset(i)
// names its i-th.
type Ticket = core.Ticket

// StatsSource is implemented by the combining constructions ("hybcomb",
// "ccsynch") and the lock-backed ones (the spin executors and "hybrid",
// where a round is an acquisition); type-assert an Executor to read
// combining statistics. rounds + combined == ops holds under blocking
// Apply; a batch, and a pipelined lock, "hybcomb" or "ccsynch" handle,
// executes many of its owner's operations as one round, so there
// rounds + combined <= ops. Read only at pipeline quiescence: every
// handle with submissions outstanding has been flushed (or fully
// waited) first.
type StatsSource = core.StatsSource

// PipelineStats is implemented by the pipelining constructions
// ("mpserver", "hybcomb", "ccsynch", the spin executors, "hybrid") and
// the shard router:
// backpressure counters of the submission pipeline (SubmitStalls =
// submissions that found the pipeline full, MaxDepth = deepest
// in-flight window any handle reached). Read at pipeline quiescence,
// like StatsSource.
type PipelineStats = core.PipelineStats

// RetryStats is implemented by the lock-path constructions (the spin
// executors and "hybrid"): Retries counts contended lock acquisitions
// — the attempts beyond the first that dispatching threads spent
// spinning. It is the contention signal the adaptive hybrid promotes
// on. Read at pipeline quiescence, like StatsSource.
type RetryStats = core.RetryStats

// AdaptiveStats is implemented by the adaptive constructions
// ("hybrid"): Transitions reports how many times the executor promoted
// (lock → delegation) and demoted (delegation → lock) so far.
type AdaptiveStats = core.AdaptiveStats

// Telemetry is an executor's metric core: lock-free latency and
// run-length histograms plus fault/backpressure counters. Create one
// with NewTelemetry, attach it with WithTelemetry, read it with
// Snapshot (any time — merge-on-read, monotonic). A nil *Telemetry is
// the disarmed state: every method is nil-safe and the constructions'
// hot paths pay one nil-check branch.
type Telemetry = telemetry.Telemetry

// TelemetrySnapshot is one merged read of a Telemetry: latency and
// run-length histograms (TelemetryHist) plus poison / stall-report /
// submit-stall counters. Subtract snapshots with Delta, sum them with
// Merge.
type TelemetrySnapshot = telemetry.Snapshot

// TelemetryHist is one merged log₂-bucketed histogram; Quantile
// extracts upper-bound percentiles (within 2× of the true value) and
// Mean the exact average.
type TelemetryHist = telemetry.Hist

// TelemetrySource is implemented by every built-in construction:
// Telemetry returns the metric core attached with WithTelemetry (nil
// when disarmed).
type TelemetrySource = core.TelemetrySource

// NewTelemetry returns an armed metric core with the default latency
// sampling interval (one in 16 blocking calls per handle).
func NewTelemetry() *Telemetry { return telemetry.New() }

// Option configures a construction; see WithMaxThreads and friends.
type Option = core.Option

// Options is the resolved configuration a Factory receives; build it
// from Option values via NewObject rather than positionally.
type Options = core.Options

// Factory builds one executor instance for a registered algorithm from
// the batch-aware Object and the already-defaulted Options. A bare
// function arrives wrapped in Func, so a factory never distinguishes
// the two.
type Factory = core.Factory

// Sentinel errors returned (wrapped) by the lifecycle and registry
// APIs; test with errors.Is.
var (
	ErrTooManyHandles     = core.ErrTooManyHandles
	ErrClosed             = core.ErrClosed
	ErrUnknownAlgorithm   = core.ErrUnknownAlgorithm
	ErrDuplicateAlgorithm = core.ErrDuplicateAlgorithm
	ErrBadOption          = core.ErrBadOption
)

// Fault-model sentinels; test with errors.Is. ErrPoisoned marks a
// terminal executor fault (every error an executor reports after a
// fault wraps it — see the Executor contract's Close-vs-Poison note
// and DESIGN.md "Fault model"); ErrNotReady and ErrWaitTimeout are the
// non-fatal outcomes of TryWait and WaitTimeout (the ticket stays
// redeemable).
var (
	ErrPoisoned    = core.ErrPoisoned
	ErrNotReady    = core.ErrNotReady
	ErrWaitTimeout = core.ErrWaitTimeout
)

// PoisonError is the concrete error a poisoned executor reports: the
// recovered panic value and the stack of the dispatch that raised it,
// wrapping ErrPoisoned. Retrieve it with errors.As.
type PoisonError = core.PoisonError

// Poisonable is implemented by every built-in executor (and the shard
// router): Poison(v) transitions it to the terminal poisoned state
// exactly as an object panic would, for callers that detect a fault
// out-of-band (a failed invariant check, a watchdog) and want the
// executor condemned rather than half-trusted.
type Poisonable = core.Poisonable

// WithMaxThreads bounds how many handles an executor hands out
// (default 128), whatever the construction: the next NewHandle fails
// with ErrTooManyHandles.
func WithMaxThreads(n int) Option { return core.WithMaxThreads(n) }

// WithMaxOps sets the combining bound MAX_OPS of "hybcomb" and
// "ccsynch" (default 200, the paper's evaluation setting).
func WithMaxOps(n int) Option { return core.WithMaxOps(n) }

// WithQueueCap sets the per-thread message-queue capacity in messages
// (default 39 ≈ the TILE-Gx's 118-word UDN buffer / 3-word requests).
func WithQueueCap(n int) Option { return core.WithQueueCap(n) }

// WithShards sets how many independent shards the hybsync/shard router
// splits a keyed object across (default 1); the single-executor
// constructions ignore it.
func WithShards(n int) Option { return core.WithShards(n) }

// WithStallTimeout arms the stall watchdog: any blocking wait inside
// the construction (a client awaiting its response, a combiner
// awaiting its predecessor) that makes no progress for d reports once
// to the backoff package's stall handler — by default a goroutine dump
// on stderr — without affecting the wait itself. 0 (the default)
// disables the watchdog and keeps the hot path free of clock reads.
func WithStallTimeout(d time.Duration) Option { return core.WithStallTimeout(d) }

// WithTelemetry attaches t as the executor's metric core: blocking
// calls record sampled latency, every dispatch run records its length,
// and poison/stall/submit-stall events are counted. One Telemetry may
// be shared across executors (a sharded router's shards aggregate into
// one core). nil leaves telemetry disarmed — the default, costing one
// nil-check branch per operation.
func WithTelemetry(t *Telemetry) Option { return core.WithTelemetry(t) }

// NewObject constructs the named algorithm around a batch-aware
// object: every drained run, combining round or lock-held batch the
// construction forms reaches obj as one DispatchBatch call, letting
// the object amortize work across the run (a counter sums it locally,
// a queue applies it without per-operation indirection); a bare
// function is NewObject(name, Func(f)). Built-in names are "mpserver",
// "hybcomb", "ccsynch", "shmserver", the adaptive "hybrid" (a lock that
// promotes itself to hybcomb delegation under contention) and the
// spin-lock executors "tas-lock", "ttas-lock", "ticket-lock",
// "mcs-lock", "clh-lock"; Algorithms lists everything registered.
// Unknown names fail with ErrUnknownAlgorithm; options explicitly set
// to invalid values fail with ErrBadOption.
func NewObject(name string, obj Object, opts ...Option) (Executor, error) {
	return core.NewObject(name, obj, opts...)
}

// MustNewObject is NewObject, panicking on failure.
func MustNewObject(name string, obj Object, opts ...Option) Executor {
	return core.MustNewObject(name, obj, opts...)
}

// MustHandle returns a new handle from e, panicking on failure — the
// thin escape hatch for benchmarks and examples where handle exhaustion
// is a programming error.
func MustHandle(e Executor) Handle { return core.MustHandle(e) }

// SyncHandle adapts a bare apply function into a full Handle whose
// submissions complete immediately — for application-registered
// executors whose transport has no natural submit/complete split.
func SyncHandle(apply func(op, arg uint64) uint64) Handle { return core.SyncHandle(apply) }

// Register adds an algorithm under name so NewObject (and the object
// constructors) can build it; it fails with ErrDuplicateAlgorithm if
// the name is taken.
func Register(name string, f Factory) error { return core.Register(name, f) }

// Algorithms returns the sorted names of all registered algorithms.
func Algorithms() []string { return core.Algorithms() }
