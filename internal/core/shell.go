package core

import (
	"fmt"
	"sync"
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
}

// Shell is the executor side every construction shares, as Pipe is the
// handle side: the fault latch, the filled Options, admission of
// handles (fault, then sealed, then the MaxThreads bound — one
// sequence, one wording), the sealed flag Close sets, and the
// telemetry and stall-watchdog wiring. A construction embeds it first
// and writes only what differs: its shared state, its Transport and
// its servicing loop. See DESIGN.md "Executor shell".
//
// Every field is written rarely (NewHandle, Close, the one poison
// trip) and read on the hot path (the latch by every dispatch, Opts by
// the combiners), so the struct is rounded up to whole cache lines:
// the tail pointers and round counters a construction declares after
// it, which some thread writes on every operation, start on a line of
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

// roundCell is one combiner's tally of the combining rounds it served
// and the requests it served in them for other threads. Combining runs
// on the combiner's own goroutine, so only the transport that holds the
// cell writes it: a round costs two plain stores on the transport's own
// line, not two atomic adds on an executor line that alternating
// combiners pull across cores. The atomics only make the read race-free.
type roundCell struct{ rounds, combined atomic.Uint64 }

// count records one round that served combined requests for others.
// Owner only.
func (c *roundCell) count(combined uint64) {
	c.rounds.Store(c.rounds.Load() + 1)
	c.combined.Store(c.combined.Load() + combined)
}

// roundTally is a combining executor's list of its transports' round
// cells, one per handle, summed on the read path.
type roundTally struct {
	mu    sync.Mutex
	cells []*roundCell
}

// join adds one transport's cell.
func (t *roundTally) join(c *roundCell) {
	t.mu.Lock()
	t.cells = append(t.cells, c)
	t.mu.Unlock()
}

// Stats implements StatsSource: the rounds and the requests combined for
// others, summed over every handle's cell; exact only at quiescence.
func (t *roundTally) Stats() (rounds, combined uint64) {
	t.mu.Lock()
	for _, c := range t.cells {
		rounds += c.rounds.Load()
		combined += c.combined.Load()
	}
	t.mu.Unlock()
	return rounds, combined
}
