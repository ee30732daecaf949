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
	// Opts is the construction's configuration, defaults filled by Init.
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
//
//hyblint:padded
type Shell struct {
	shellHot
	_ [pad.CacheLine - unsafe.Sizeof(shellHot{})%pad.CacheLine]byte
}

// Init names the construction and fills its options' defaults, so the
// zero Options is valid for every constructor. Call it before the
// executor is shared.
func (s *Shell) Init(algo string, o Options) {
	o.fill()
	s.Algo, s.Tel, s.Opts = algo, o.Telemetry, o
}

// Admit is the admission half of every NewHandle: it fails with the
// *PoisonError once poisoned, with ErrClosed once sealed and with
// ErrTooManyHandles once MaxThreads handles exist, each wrapped with
// the algorithm's name; otherwise it returns the new handle's index in
// [0, MaxThreads).
func (s *Shell) Admit() (id int, err error) {
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

// Seal fails every later Admit with ErrClosed. It reports whether this
// call was the first, which is the one that stops a construction's
// background goroutine.
func (s *Shell) Seal() (first bool) { return s.sealed.CompareAndSwap(false, true) }

// Sealed reports whether Seal has been called; a polling server's exit
// condition.
func (s *Shell) Sealed() bool { return s.sealed.Load() }

// Telemetry implements TelemetrySource.
func (s *Shell) Telemetry() *telemetry.Telemetry { return s.Opts.Telemetry }

// Arm readies w, in place, as one of the construction's watched
// waiters: the executor's stall budget, label for the watchdog's
// report, and the telemetry core counting its firings.
func (s *Shell) Arm(w *backoff.Watched, label string) {
	*w = backoff.Armed(s.Opts.StallTimeout, label)
	w.SetOnStall(s.Opts.Telemetry.StallHook())
}
