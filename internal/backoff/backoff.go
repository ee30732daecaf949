// Package backoff provides the single adaptive wait loop shared by
// every spinning site in the repository: message-queue send/receive,
// the HybComb combiner hand-off, the CC-Synch cell wait, the MCS lock,
// an SHM-SERVER client's slot wait, an MP-SERVER client's reply wait
// and the pooled server loops' idle poll.
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
// Where a waiter's ladder starts is its role's choice. The zero Backoff
// starts with the spin window and Yielding() with the yield window. A
// server loop's idle poll and an MP-SERVER client's reply wait take a
// Role, which restarts the ladder by the process's occupancy estimate
// (see Occupy): live server loops and the client handles registered
// with them, against GOMAXPROCS. Where each of those waiters has a
// processor to itself a spin is cheaper than any hand-over, so the
// role spins patiently first (two-phase competitive spinning, Karlin
// et al., SOSP 1991); where they outnumber the processors, spinning
// only delays the peer it waits for.
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

	"hybsync/internal/pad"
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
	// patientSpins is a patient role's extra pure-spin budget, spent
	// before the usual ladder.
	patientSpins = 4096
)

// Backoff is the adaptive waiter. The zero value is ready to use; it is
// not safe for concurrent use (each waiting goroutine owns its own).
// The struct is deliberately three words: hot paths construct one per
// wait loop, so growing it taxes every spinning site in the repository
// (watchdog state lives in the separate Watched wrapper).
type Backoff struct {
	n     int
	sleep time.Duration
	// role decides the step Reset restarts n at: 0 is the plain ladder,
	// spinLimit is yield-first, and a negative start spins that many
	// extra re-checks first.
	role Role
}

// Role names a server construction's waiting site. Its Reset picks the
// ladder's start from the occupancy estimate (see Occupy):
//
//	role    patient (4,096 extra spins, then the ladder) while   otherwise
//	Server  servers < GOMAXPROCS                                 the plain ladder
//	Reply   servers + clients <= GOMAXPROCS                      yield-first
//
// At GOMAXPROCS 1 no role is patient: the peer can only run once the
// waiter gives up the processor.
type Role uint8

const (
	ladder   Role = iota // the zero Backoff
	yielding             // Yielding()
	// Server is a server loop whose pass found no request pending.
	Server
	// Reply is a client awaiting its server's reply.
	Reply
)

// For returns a Backoff in role r, its ladder started where the
// estimate puts it now.
func For(r Role) Backoff { return Backoff{n: r.start(), role: r} }

// start is the step a role other than the plain ladder starts at; only
// Server and Reply read the occupancy estimate.
func (r Role) start() int {
	if r == yielding {
		return spinLimit
	}
	return r.startAt(occupancy.load())
}

// startAt is where Server or Reply starts under the given estimate.
func (r Role) startAt(servers, clients, procs int) int {
	switch {
	case procs > 1 && r == Server && servers < procs,
		procs > 1 && r == Reply && servers+clients <= procs:
		return -patientSpins
	case r == Reply:
		return spinLimit
	}
	return 0
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
// progress is made so the next wait starts where the waiter's role
// does: the spin phase, the yield phase for Yielding(), and wherever
// the occupancy estimate puts Server and Reply now.
func (b *Backoff) Reset() {
	b.n = 0
	if b.role != ladder {
		b.n = b.role.start()
	}
	b.sleep = 0
}

// occupancy is the process's estimate of the waiters that each hold a
// processor. Its fields are packed into one word, so a Reset reads them
// together with one load; only registrations write it, so the word's
// line, which it has to itself, stays in every waiter's cache.
var occupancy estimate

type estimate struct {
	_ pad.Line
	// word is servers | clients<<occupancyBits | procs<<2*occupancyBits,
	// procs being GOMAXPROCS as captured at the last write: reading it
	// on a wait path would take the scheduler's lock.
	word atomic.Uint64
	_    pad.Line
}

const occupancyBits = 21

func (e *estimate) load() (servers, clients, procs int) { return unpack(e.word.Load()) }

func unpack(w uint64) (servers, clients, procs int) {
	const mask = 1<<occupancyBits - 1
	return int(w & mask), int(w >> occupancyBits & mask), int(w >> (2 * occupancyBits))
}

// Occupy adds servers server loops and clients client handles to the
// occupancy estimate; negative counts take them out again. The server
// pool calls it when one of its loops starts and when it exits, once
// per loop however many executors it serves, and a server construction
// when a handle registers and when Close gives its handles back. Every
// count added must be taken out: a leaked one turns the patient roles
// on or off for the whole process.
func Occupy(servers, clients int) {
	procs := uint64(runtime.GOMAXPROCS(0))
	for {
		old := occupancy.word.Load()
		s, c, _ := unpack(old)
		s, c = s+servers, c+clients
		if s < 0 || c < 0 {
			panic("backoff: occupancy taken out that was never added")
		}
		if occupancy.word.CompareAndSwap(old, uint64(s)|uint64(c)<<occupancyBits|procs<<(2*occupancyBits)) {
			return
		}
	}
}

// Occupancy reads the estimate's counts.
func Occupancy() (servers, clients int) {
	servers, clients, _ = occupancy.load()
	return servers, clients
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
// at the yield phase, whatever the occupancy. Use it when each re-check
// of the condition is itself expensive, so that burning re-checks is
// never cheaper than handing over the processor. Reset re-arms it to
// yield-first as well. A wait that is yield-first only where the
// processors are crowded is Reply's.
func Yielding() Backoff { return Backoff{role: yielding, n: spinLimit} }

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
