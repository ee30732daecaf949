package core

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

// shellHot is Shell's state; see Shell for the padding.
type shellHot struct {
	PoisonLatch
	// Opts is the construction's configuration, defaults filled by init.
	Opts    Options
	sealed  atomic.Bool
	handles atomic.Int32
	// cells lists the counter cells of the handles built by handle, the
	// newest first.
	cells atomic.Pointer[counts]
}

// Shell is the executor side every construction shares, as Pipe is the
// handle side: the fault latch, the filled Options, admission of
// handles (fault, then sealed, then the MaxThreads bound — one
// sequence, one wording), the sealed flag Close sets, the sum of the
// handles' counter cells, and the telemetry and stall-watchdog wiring.
// A construction embeds it first and writes only what differs: its
// shared state, its Transport and its servicing loop. See DESIGN.md
// "Executor shell".
//
// Every field is written rarely (NewHandle, Close, the one poison
// trip, a read of the counter sums) and read on the hot path (the latch by every dispatch, Opts by
// the combiners), so the struct is rounded up to whole cache lines:
// the tail pointers a construction declares after it, which some
// thread writes on every operation, start on a line of
// their own — in a construction that itself starts on a line, which the
// allocator grants only to whole-line size classes (see HybComb).
type Shell struct {
	shellHot
	_ [pad.CacheLine - unsafe.Sizeof(shellHot{})%pad.CacheLine]byte
}

// init names the construction and fills its options' defaults, so the
// zero Options is valid for every constructor. Call it before the
// executor is shared.
func (s *Shell) init(algo string, o Options) {
	o.fill()
	s.Algo, s.Tel, s.Opts = algo, o.Telemetry, o
}

// admit is the admission half of every NewHandle: it fails with the
// *PoisonError once poisoned, with ErrClosed once sealed and with
// ErrTooManyHandles once MaxThreads handles exist, each wrapped with
// the algorithm's name; otherwise it returns the new handle's index in
// [0, MaxThreads).
func (s *Shell) admit() (id int, err error) {
	err = s.Err()
	if err == nil && s.sealed.Load() {
		err = ErrClosed
	}
	if err == nil {
		if id = int(s.handles.Add(1)) - 1; id < s.Opts.MaxThreads {
			return id, nil
		}
		err = fmt.Errorf("more than %d handles (raise MaxThreads): %w", s.Opts.MaxThreads, ErrTooManyHandles)
	}
	return 0, fmt.Errorf("%s: NewHandle: %w", s.Algo, err)
}

// seal fails every later admit with ErrClosed. It reports whether this
// call was the first, which is the one that detaches a server
// construction from its server loop.
func (s *Shell) seal() (first bool) { return s.sealed.CompareAndSwap(false, true) }

// Close implements Executor for the constructions with no servicing
// goroutine (the lock executor, CC-Synch, HybComb and the hybrid): it
// only seals, failing later NewHandle calls. Every operation already
// submitted completes on a client's own thread — a handle's pending
// run at the Wait or Flush that redeems it — so tickets stay
// redeemable. It is idempotent; on a poisoned executor it reports the
// *PoisonError.
func (s *Shell) Close() error {
	s.seal()
	return s.Err()
}

// Telemetry implements TelemetrySource.
func (s *Shell) Telemetry() *telemetry.Telemetry { return s.Opts.Telemetry }

// arm readies w, in place, as one of the construction's watched
// waiters: the executor's stall budget, label for the watchdog's
// report, and the telemetry core counting its firings.
func (s *Shell) arm(w *backoff.Watched, label string) {
	*w = backoff.Armed(s.Opts.StallTimeout, label)
	w.SetOnStall(s.Opts.Telemetry.StallHook())
}

// counts is one handle's counter cell, inside its Pipe: the rounds it
// ran — combining rounds it served, and lock acquisitions, each of
// which is a round of the holder's own run — the requests it combined
// in them for other threads, the acquisitions that queued behind a
// predecessor, its submit stalls and the deepest its window reached.
// Only the handle's goroutine writes the five counts (its transport,
// and its Pipe's stalls and depth), so they are plain words on a line
// the handle owns: a count is an add, not a read-modify-write on a line
// the executor's handles share, and on amd64 not an XCHG either, which
// is what a Go atomic store compiles to. A cell is read by its own
// handle, or by a reader that has synchronized with it: the hybrid's
// controller gets its evidence from each handle's own read at its tick
// (see hybTransport.tick), and Stats, Retries and Pipeline read at
// quiescence (see StatsSource).
type counts struct {
	rounds, combined, retries, stalls, depth uint64

	next *counts // the cell of the executor's previous handle, set before the cell is listed
}

// round counts one combining round that served combined requests for
// other threads. Owner only.
func (c *counts) round(combined uint64) {
	c.rounds++
	c.combined += combined
}

// totals is an executor's counts: its handles' cells summed, depth the
// deepest any handle's window reached.
type totals struct {
	rounds, combined, retries, stalls, depth uint64
}

// stats is StatsSource's read of t.
func (t totals) stats() (rounds, combined uint64) { return t.rounds, t.combined }

// pipeline is PipelineStats's read of t.
func (t totals) pipeline() (submitStalls, maxDepth uint64) { return t.stalls, t.depth }

// handle builds the Pipe over spec as one of the construction's handles
// and lists its counter cell with the ones totals sums. The list costs
// the Shell one pointer, so it keeps its size on every target (a mutex
// and a slice would add a line to it on amd64 and on 386 alike).
func (s *Shell) handle(spec pipeSpec) *Pipe {
	p := newPipe(spec)
	for {
		p.cnt.next = s.cells.Load()
		if s.cells.CompareAndSwap(p.cnt.next, &p.cnt) {
			return p
		}
	}
}

// totals sums the cells of the handles built by handle. It is what
// Stats, Retries and Pipeline read: plain words, so only a reader that
// has synchronized with every handle's goroutine may call it (see
// StatsSource).
func (s *Shell) totals() (t totals) {
	for c := s.cells.Load(); c != nil; c = c.next {
		t.rounds += c.rounds
		t.combined += c.combined
		t.retries += c.retries
		t.stalls += c.stalls
		t.depth = max(t.depth, c.depth)
	}
	return t
}
