// Package backoff provides the single adaptive wait loop shared by
// every spinning site in the repository (message-queue send/receive,
// the HybComb combiner hand-off, the SHM-server slots, the MCS lock).
//
// The paper's algorithms busy-wait because on the TILE-Gx a waiting
// core is a dedicated core; under the Go runtime a spinning goroutine
// instead starves whoever it is waiting for, and — on small hosts —
// burns a core that the server/combiner needs. Backoff therefore
// escalates in three phases: a short pure-spin window (the condition
// usually fires within a handful of re-checks when the peer is
// running), a yield window (runtime.Gosched hands the P to the peer,
// the common case at GOMAXPROCS=1), and finally short sleeps with
// exponential growth so long-idle waiters stop consuming CPU entirely.
//
// Two fault-containment hooks ride on the waiter, both free on the
// fast path:
//
//   - A stall watchdog: an Armed backoff that reaches the sleep phase
//     and keeps waiting past its stall budget reports once — by
//     default a goroutine dump to stderr — so a lost wakeup or a
//     combiner duty nobody takes up surfaces as a loud diagnostic
//     instead of an infinite quiet spin. Disarmed (stall 0) backoffs
//     never check a clock; armed ones only do so in the sleep phase,
//     where a time.Now is noise against a microsecond sleep.
//   - A schedule perturber: tests install a function that every Wait
//     reaching the yield or sleep phase invokes, letting a chaos
//     harness inject Gosched/sleep exactly at the points where the
//     algorithms are blocked on each other — the places scheduling
//     order matters. The pure-spin window never consults the hook: it
//     is the hot path, and a perturbation that neither yields nor
//     sleeps cannot change the schedule. When no perturber is
//     installed the cost is one atomic pointer load per escalated
//     Wait.
package backoff

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// spinLimit is how many Wait calls pure-spin before yielding.
	spinLimit = 32
	// yieldLimit is how many Wait calls (total) yield before sleeping.
	yieldLimit = 1024
	// minSleep/maxSleep bound the sleep phase; sleeps double between
	// these bounds so a long-idle waiter converges to maxSleep wakeups.
	minSleep = time.Microsecond
	maxSleep = 100 * time.Microsecond
)

// Backoff is the adaptive waiter. The zero value is ready to use; it is
// not safe for concurrent use (each waiting goroutine owns its own).
// The struct is deliberately three words: hot paths construct one per
// wait loop, so growing it taxes every spinning site in the repository
// (watchdog state lives in the separate Watched wrapper).
type Backoff struct {
	n          int
	sleep      time.Duration
	yieldFirst bool
}

// Wait performs one escalation step: spin, then yield, then sleep.
// Call it each time the awaited condition is observed false.
func (b *Backoff) Wait() {
	b.n++
	switch {
	case b.n <= spinLimit:
		// Pure re-check: the peer is likely mid-update on another core.
		// The perturb hook is deliberately not consulted here — the
		// spin window is the hot path, and a perturbation that neither
		// yields nor sleeps cannot change the schedule anyway.
	case b.n <= yieldLimit:
		if p := perturb.Load(); p != nil {
			(*p)()
		}
		runtime.Gosched()
	default:
		if p := perturb.Load(); p != nil {
			(*p)()
		}
		if b.sleep == 0 {
			b.sleep = minSleep
		} else if b.sleep < maxSleep {
			b.sleep *= 2
			if b.sleep > maxSleep {
				b.sleep = maxSleep
			}
		}
		time.Sleep(b.sleep)
	}
}

// sleeping reports whether the escalation has reached the sleep phase
// (where a clock read is noise against a microsecond sleep).
func (b *Backoff) sleeping() bool { return b.n > yieldLimit }

// Reset re-arms the escalation after the condition fired; call it when
// progress is made so the next wait starts in the cheap spin phase.
func (b *Backoff) Reset() {
	b.n = 0
	if b.yieldFirst {
		b.n = spinLimit
	}
	b.sleep = 0
}

// Watched is a Backoff with the stall watchdog attached. It is larger
// than the bare Backoff, so long-lived waiters (handles, ticketed
// streams) should embed one and Reset it per wait loop rather than
// constructing one per operation.
type Watched struct {
	Backoff
	stall    time.Duration
	label    string
	start    time.Time // first sleep-phase entry since the last Reset
	reported bool
	onStall  func()
}

// Armed returns a Watched backoff that reports a stall — once, through
// the stall handler — when it has been waiting in the sleep phase for
// longer than stall without the condition firing. label names the wait
// in the diagnostic ("ccsynch: waiting for cell service"). A stall of
// 0 disarms the watchdog and the returned waiter behaves exactly like
// a zero Backoff.
func Armed(stall time.Duration, label string) Watched {
	return Watched{stall: stall, label: label}
}

// SetOnStall attaches f as a per-waiter stall observer: it runs right
// before each stall report (telemetry counts watchdog firings this
// way), on the waiting goroutine. nil detaches. Set it on the stored
// Watched value — Armed returns by value, so a hook set on a copy is
// lost.
func (w *Watched) SetOnStall(f func()) { w.onStall = f }

// Active reports whether the watchdog is armed. Wait loops that have a
// cheaper disarmed equivalent (e.g. a queue's own blocking receive)
// can branch on it and only pay the observed TryRecv/Wait loop when a
// stall would actually be reported.
func (w *Watched) Active() bool { return w.stall > 0 }

// Wait escalates like Backoff.Wait; once armed and in the sleep phase
// it additionally tracks elapsed stall time. Disarmed (stall 0), the
// extra cost is one predictable branch per call.
func (w *Watched) Wait() {
	w.Backoff.Wait()
	if w.stall > 0 && !w.reported && w.sleeping() {
		if w.start.IsZero() {
			w.start = time.Now()
		} else if waited := time.Since(w.start); waited >= w.stall {
			w.reported = true
			if w.onStall != nil {
				w.onStall()
			}
			reportStall(w.label, waited)
		}
	}
}

// Reset re-arms the escalation and the stall watchdog: progress resets
// the stall clock. The watchdog state is only written back when a
// prior wait actually reached the sleep phase, keeping Reset cheap on
// the per-operation paths that call it before every wait loop.
func (w *Watched) Reset() {
	w.Backoff.Reset()
	if !w.start.IsZero() {
		w.start = time.Time{}
		w.reported = false
	}
}

// Yielding returns a Backoff that skips the pure-spin phase and starts
// at the yield phase. Use it when each re-check of the condition is
// itself expensive — e.g. the SHM-server's full slot sweep — so that
// burning re-checks is never cheaper than handing over the processor.
// Reset re-arms it to yield-first as well.
func Yielding() Backoff { return Backoff{yieldFirst: true, n: spinLimit} }

// StallHandler receives one stall report: the waiting site's label and
// how long it has been sleeping without progress.
type StallHandler func(label string, waited time.Duration)

var (
	stallHandler atomic.Pointer[StallHandler]
	perturb      atomic.Pointer[func()]
)

// SetStallHandler replaces the process-wide stall handler (nil restores
// the default, which writes a full goroutine dump to stderr). Tests use
// it to observe watchdog firings without parsing stderr.
func SetStallHandler(h StallHandler) {
	if h == nil {
		stallHandler.Store(nil)
		return
	}
	stallHandler.Store(&h)
}

// SetPerturb installs f as the schedule perturber called by every Wait
// that escalates past the pure-spin window (nil uninstalls it). f runs
// on whatever goroutine is waiting and must be safe for concurrent
// use; internal/chaos provides a seeded implementation. Perturbation
// is a whole-process test facility, not an executor option.
func SetPerturb(f func()) {
	if f == nil {
		perturb.Store(nil)
		return
	}
	perturb.Store(&f)
}

// reportStall delivers one stall diagnostic through the installed
// handler, or the default stderr goroutine dump.
func reportStall(label string, waited time.Duration) {
	if h := stallHandler.Load(); h != nil {
		(*h)(label, waited)
		return
	}
	if label == "" {
		label = "unlabelled wait"
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr,
		"hybsync: stall watchdog: %s: no progress after %v; goroutine dump:\n%s\n",
		label, waited, buf[:n])
}
