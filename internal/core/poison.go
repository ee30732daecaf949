package core

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"

	"hybsync/internal/telemetry"
)

// Fault-state errors. ErrPoisoned is wrapped by the *PoisonError every
// faulted executor reports; the bounded-wait sentinels are returned
// bare. Test all three with errors.Is.
var (
	// ErrPoisoned reports that an executor has entered its terminal
	// fault state: a panic escaped Object.DispatchBatch on the servicing
	// path (or Poison was called), the object is never invoked again,
	// and every subsequent operation completes with a zero result. The
	// concrete error is always a *PoisonError carrying the recovered
	// value and stack.
	ErrPoisoned = errors.New("executor poisoned")
	// ErrWaitTimeout reports a WaitTimeout that expired before the
	// operation completed. The ticket remains outstanding and
	// redeemable: retry WaitTimeout, or fall back to Wait.
	ErrWaitTimeout = errors.New("wait timed out")
	// ErrNotReady reports a TryWait on an operation that has not
	// completed yet. The ticket remains outstanding and redeemable.
	ErrNotReady = errors.New("operation not ready")
)

// PoisonError is the terminal fault record of a poisoned executor:
// which algorithm faulted, the value the dispatch panicked with (or
// the value passed to Poison), and the stack captured at the fault.
// It unwraps to ErrPoisoned.
type PoisonError struct {
	Algo  string // registry name of the faulted construction
	Value any    // recovered panic value, or Poison's argument
	Stack []byte // goroutine stack captured where the fault surfaced
}

// Error implements error.
func (e *PoisonError) Error() string {
	if e.Algo == "" {
		return fmt.Sprintf("executor poisoned: %v", e.Value)
	}
	return fmt.Sprintf("%s: executor poisoned: %v", e.Algo, e.Value)
}

// Unwrap makes errors.Is(err, ErrPoisoned) hold for every PoisonError.
func (e *PoisonError) Unwrap() error { return ErrPoisoned }

// Poisonable is the external-poison capability: Poison(v) transitions
// the executor to the terminal poisoned state without waiting for a
// dispatch fault. All built-in executors (and the shard router, by
// fan-out) implement it. Poisoning is a latch, not a shutdown: it
// stops the object from ever being invoked again and fails future
// submissions fast, but it cannot unwedge a goroutine already blocked
// inside the object, and a server construction still needs Close to
// leave its server loop.
// Abandoning an executor (a timed-out sweep cell, a wedged benchmark)
// should poison it so any stragglers fail fast instead of combining
// against a dead owner's state.
type Poisonable interface {
	Poison(v any)
}

// PoisonLatch is the shared fault containment of every construction:
// a first-fault-wins latch plus the guarded dispatch that feeds it.
// Constructions embed it (gaining Err, Poisoned and Poison — the
// Executor fault surface) and route every Object.DispatchBatch call
// through Dispatch. The healthy fast path costs one atomic pointer
// load and one deferred recover around the object call.
//
// The containment invariant: poisoning stops the OBJECT, never the
// MACHINERY. After the latch trips, servers keep serving, combiners
// keep combining, rounds keep closing and handing over — every
// response is sent and every cell released, just with zero results.
// That is what turns "one panic in a critical section" into "every
// waiter unblocks with a poisoned zero" instead of a deadlock.
type PoisonLatch struct {
	// Algo names the construction in the PoisonError (set once at
	// construction time, before any dispatch).
	Algo string
	// Tel, when armed, counts the latch trip as a telemetry poison
	// event (set once at construction time, like Algo). Nil-safe.
	Tel *telemetry.Telemetry
	p   atomic.Pointer[PoisonError]
}

// Poison implements Poisonable: latch the terminal fault state with v
// as the cause. The first poison wins; later calls are no-ops.
func (l *PoisonLatch) Poison(v any) { l.poison(v, debug.Stack()) }

func (l *PoisonLatch) poison(v any, stack []byte) {
	if l.p.CompareAndSwap(nil, &PoisonError{Algo: l.Algo, Value: v, Stack: stack}) {
		// Count only the winning trip, so the counter equals the number
		// of executors that entered the terminal fault state.
		l.Tel.NotePoison()
	}
}

// Poisoned reports whether the latch has tripped.
func (l *PoisonLatch) Poisoned() bool { return l.p.Load() != nil }

// Err returns nil while healthy and the *PoisonError once poisoned.
func (l *PoisonLatch) Err() error {
	if pe := l.p.Load(); pe != nil {
		return pe
	}
	return nil
}

// Dispatch is the panic-safe servicing call: it executes
// obj.DispatchBatch(reqs, results) unless the latch has tripped, and
// recovers a panic escaping the object into the poisoned state. Either
// way results is deterministic afterwards — zero-filled when the
// object did not complete the batch (already poisoned, or poisoned by
// this very call; a panic may have left results partially written).
// The healthy path is one frame: an open-coded defer whose closure
// only runs teardown when the object actually panicked.
func (l *PoisonLatch) Dispatch(obj Object, reqs []Req, results []uint64) {
	defer func() {
		if r := recover(); r != nil {
			l.poison(r, debug.Stack())
			zeroResults(results)
		}
	}()
	if l.p.Load() != nil {
		zeroResults(results)
		return
	}
	obj.DispatchBatch(reqs, results)
}

func zeroResults(results []uint64) {
	for i := range results {
		results[i] = 0
	}
}
