// Package conc implements the concurrent objects of the paper's
// evaluation as native Go types: a linearizable counter, Michael & Scott
// queues in one-lock and two-lock form, an LCRQ-style nonblocking queue,
// Treiber's nonblocking stack and a coarse-lock stack. The blocking
// variants are parameterized by a core.Executor factory, so each can run
// over MP-SERVER, HYBCOMB, CC-SYNCH, SHM-SERVER, the MCS lock or the
// hybrid.
package conc

import "hybsync/internal/core"

// Opcodes understood by the executor-backed objects.
const (
	OpInc  uint64 = 1
	OpEnq  uint64 = 2
	OpDeq  uint64 = 3
	OpPush uint64 = 4
	OpPop  uint64 = 5
)

// EmptyVal is returned by Dequeue/Pop on an empty container.
const EmptyVal = ^uint64(0)

// ExecutorFactory builds an executor around the object's batch-aware
// sequential implementation — e.g. func(obj core.Object)
// (core.Executor, error) { return core.NewObject("hybcomb", obj) }.
// Every object in this package is a native core.Object, so each
// drained run the construction forms executes against it in one
// DispatchBatch call.
type ExecutorFactory func(core.Object) (core.Executor, error)

// execStats reports the combining statistics of an executor when it is
// a core.StatsSource (HybComb, CC-Synch); ok is false otherwise. Read
// only while no operation is in flight.
func execStats(e core.Executor) (rounds, combined uint64, ok bool) {
	if s, isSource := e.(core.StatsSource); isSource {
		rounds, combined = s.Stats()
		return rounds, combined, true
	}
	return 0, 0, false
}

// Counter is the §5.3 microbenchmark object: a linearizable
// fetch-and-increment counter whose increment runs as a critical
// section on the chosen executor.
type Counter struct {
	exec  core.Executor
	value uint64 // touched only inside the CS
}

// counterObject is the counter's native batch object: a run of
// increments reads the shared value once, hands out the run's results
// from a register, and writes the sum back — the batch contract's
// simplest payoff (any opcode increments, matching the legacy scalar
// dispatch).
type counterObject struct{ c *Counter }

func (o counterObject) DispatchBatch(reqs []core.Req, results []uint64) {
	v := o.c.value
	for i := range reqs {
		results[i] = v
		v++
	}
	o.c.value = v
}

// NewCounter builds the counter over the given construction.
func NewCounter(f ExecutorFactory) (*Counter, error) {
	c := &Counter{}
	exec, err := f(counterObject{c: c})
	if err != nil {
		return nil, err
	}
	c.exec = exec
	return c, nil
}

// NewHandle returns a per-goroutine handle.
func (c *Counter) NewHandle() (*CounterHandle, error) {
	h, err := c.exec.NewHandle()
	if err != nil {
		return nil, err
	}
	return &CounterHandle{h: h}, nil
}

// Close shuts down the underlying executor; idempotent. On a poisoned
// executor it still shuts down and reports the *PoisonError.
func (c *Counter) Close() error { return c.exec.Close() }

// Err reports the underlying executor's terminal fault (a *PoisonError
// wrapping core.ErrPoisoned), or nil while it is healthy.
func (c *Counter) Err() error { return c.exec.Err() }

// Poison condemns the underlying executor as if its object had
// panicked — for callers that detect a counter invariant violation
// out-of-band. No-op when the executor does not accept faults.
func (c *Counter) Poison(v any) {
	if p, ok := c.exec.(core.Poisonable); ok {
		p.Poison(v)
	}
}

// Value reads the counter; call only while no increments are in flight.
func (c *Counter) Value() uint64 { return c.value }

// Stats reports the underlying executor's combining statistics when it
// is a combining construction; ok is false otherwise. Call only while
// no increments are in flight.
func (c *Counter) Stats() (rounds, combined uint64, ok bool) { return execStats(c.exec) }

// CounterHandle is a goroutine's capability to increment the counter.
type CounterHandle struct {
	h core.Handle
}

// Inc atomically increments the counter and returns the previous value.
func (h *CounterHandle) Inc() uint64 { return h.h.Apply(OpInc, 0) }

// AddN increments the counter n times as one pipelined batch: the
// first n-1 increments are posted fire-and-forget and only the last is
// waited on, so a pipelining construction (MP-SERVER, HYBCOMB) ships
// the whole batch for the price of one round trip. Per-handle FIFO
// makes the final increment the batch's last, so AddN returns the
// counter's value immediately after the batch executed (0 for n <= 0,
// without touching the counter).
func (h *CounterHandle) AddN(n int) uint64 {
	if n <= 0 {
		return 0
	}
	// The built-in constructions never fail Post/Submit; a third-party
	// transport that does falls back to the blocking path rather than
	// silently losing increments.
	for i := 0; i < n-1; i++ {
		if err := h.h.Post(OpInc, 0); err != nil {
			h.h.Apply(OpInc, 0)
		}
	}
	t, err := h.h.Submit(OpInc, 0)
	if err != nil {
		return h.h.Apply(OpInc, 0) + 1
	}
	return h.h.Wait(t) + 1
}
