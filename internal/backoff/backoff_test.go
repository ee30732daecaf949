package backoff

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestWaitEventuallySleeps(t *testing.T) {
	var b Backoff
	for i := 0; i < yieldLimit; i++ {
		b.Wait()
	}
	if b.sleep != 0 {
		t.Fatalf("sleeping before yieldLimit: sleep=%v", b.sleep)
	}
	b.Wait()
	if b.sleep != minSleep {
		t.Fatalf("first sleep = %v, want %v", b.sleep, minSleep)
	}
	for i := 0; i < 64; i++ {
		b.Wait()
	}
	if b.sleep != maxSleep {
		t.Fatalf("sleep did not cap: %v, want %v", b.sleep, maxSleep)
	}
}

// phases counts the Waits b spends pure-spinning and yielding before
// its first sleep: the perturb hook runs on every step past the spin
// window, and the sleep phase is the first to set b.sleep.
func phases(b *Backoff) (spins, yields int) {
	var escalated atomic.Int64
	SetPerturb(func() { escalated.Add(1) })
	defer SetPerturb(nil)
	for steps := 0; b.sleep == 0; steps++ {
		b.Wait()
		if b.sleep != 0 {
			return steps - int(escalated.Load()) + 1, int(escalated.Load()) - 1
		}
	}
	return 0, 0
}

// TestLadderSteps pins the zero value's and Yielding's ladders, fresh
// and after a Reset: 32 spins then 992 yields, and yield-first the
// same 992 yields — also where the estimate would make Server and
// Reply patient.
func TestLadderSteps(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, occ := range []int{0, 1} {
		Occupy(occ, occ)
		for _, c := range []struct {
			name          string
			b             Backoff
			spins, yields int
		}{
			{"zero", Backoff{}, 32, 992},
			{"yielding", Yielding(), 0, 992},
		} {
			b := c.b
			for pass := range 2 {
				if s, y := phases(&b); s != c.spins || y != c.yields {
					t.Errorf("%s at occupancy (%d, %d), pass %d: %d spins, %d yields before sleeping, want %d, %d",
						c.name, occ, occ, pass, s, y, c.spins, c.yields)
				}
				b.Reset()
			}
		}
		Occupy(-occ, -occ)
	}
}

// TestBackoffIsThreeWords: hot paths construct a Backoff per wait
// loop, and the role rides in the word the yield-first flag had — the
// count, the sleep (a Duration: two words on 32-bit targets) and one.
func TestBackoffIsThreeWords(t *testing.T) {
	var words struct {
		n     int
		sleep time.Duration
		role  uintptr
	}
	if got, want := unsafe.Sizeof(Backoff{}), unsafe.Sizeof(words); got != want {
		t.Fatalf("Backoff is %d bytes, want %d (three words)", got, want)
	}
}

// TestRoleStart is the occupancy policy as a table: where each role's
// ladder starts for servers and clients against procs.
func TestRoleStart(t *testing.T) {
	const patient, plain, yieldFirst = -patientSpins, 0, spinLimit
	for _, c := range []struct {
		servers, clients, procs int
		server, reply           int
	}{
		// One processor: the peer runs only once the waiter gives it up.
		{0, 0, 1, plain, yieldFirst},
		{1, 0, 1, plain, yieldFirst},
		{1, 1, 1, plain, yieldFirst},
		{1, 2, 1, plain, yieldFirst},
		// 2 CPUs, a processor each: solo-apply's server and client, or
		// fewer.
		{1, 1, 2, patient, patient},
		{0, 0, 2, patient, patient},
		{1, 0, 2, patient, patient},
		// contended-apply and pipelined-window: two clients crowd the
		// server's processor, but the server still leaves one free.
		{1, 2, 2, patient, yieldFirst},
		// sharded-multi: four servers on 2 CPUs.
		{4, 1, 2, plain, yieldFirst},
		{2, 0, 2, plain, patient},
		{2, 1, 2, plain, yieldFirst},
		// More processors than waiters.
		{1, 2, 4, patient, patient},
		{3, 1, 4, patient, patient},
		{4, 0, 4, plain, patient},
		{3, 2, 4, patient, yieldFirst},
	} {
		if got := Server.startAt(c.servers, c.clients, c.procs); got != c.server {
			t.Errorf("Server at servers=%d clients=%d procs=%d starts at %d, want %d", c.servers, c.clients, c.procs, got, c.server)
		}
		if got := Reply.startAt(c.servers, c.clients, c.procs); got != c.reply {
			t.Errorf("Reply at servers=%d clients=%d procs=%d starts at %d, want %d", c.servers, c.clients, c.procs, got, c.reply)
		}
	}
}

// TestResetFollowsOccupancy registers waiters through Occupy, as the
// server constructions do, and checks that each role's Reset restarts
// its ladder where the estimate now puts it, with GOMAXPROCS captured
// at the write.
func TestResetFollowsOccupancy(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s0, c0 := Occupancy()
	if s0 != 0 || c0 != 0 {
		t.Fatalf("estimate reads (%d, %d) before the test registered anything", s0, c0)
	}
	server, reply := For(Server), For(Reply)
	for _, step := range []struct {
		servers, clients  int
		serverAt, replyAt int
	}{
		{1, 1, -patientSpins, -patientSpins},
		{0, 1, -patientSpins, spinLimit},
		{1, 0, 0, spinLimit},
		{-2, -2, -patientSpins, -patientSpins},
	} {
		Occupy(step.servers, step.clients)
		for _, w := range []struct {
			b    *Backoff
			want int
		}{{&server, step.serverAt}, {&reply, step.replyAt}} {
			for range 40 {
				w.b.Wait()
			}
			w.b.Reset()
			if w.b.n != w.want || w.b.sleep != 0 {
				t.Errorf("after Occupy(%d, %d): role %d Reset to n=%d sleep=%v, want n=%d", step.servers, step.clients, w.b.role, w.b.n, w.b.sleep, w.want)
			}
		}
	}
	if s, c := Occupancy(); s != 0 || c != 0 {
		t.Fatalf("estimate reads (%d, %d) after every count was taken out", s, c)
	}

	// GOMAXPROCS is read at the write, never by a waiter.
	runtime.GOMAXPROCS(1)
	Occupy(0, 0)
	if b := For(Reply); b.n != spinLimit {
		t.Errorf("Reply at GOMAXPROCS 1 starts at %d, want yield-first %d", b.n, spinLimit)
	}
	runtime.GOMAXPROCS(2)
	if b := For(Reply); b.n != spinLimit {
		t.Errorf("Reply read GOMAXPROCS on its own: starts at %d before any write captured 2", b.n)
	}
	Occupy(0, 0)
}

// TestOccupyRefusesUnderflow: taking out a count never added is a
// registration bug, reported at once rather than left to wrap the
// packed estimate.
func TestOccupyRefusesUnderflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Occupy took out a client that was never added")
		}
		if s, c := Occupancy(); s != 0 || c != 0 {
			t.Errorf("a refused Occupy changed the estimate to (%d, %d)", s, c)
		}
	}()
	Occupy(0, -1)
}

func TestYieldingSkipsSpinPhase(t *testing.T) {
	b := Yielding()
	if b.n != spinLimit {
		t.Fatalf("Yielding starts at n=%d, want %d", b.n, spinLimit)
	}
	b.Wait()
	b.Reset()
	if b.n != spinLimit {
		t.Fatalf("Reset re-armed to n=%d, want %d (yield-first preserved)", b.n, spinLimit)
	}
}

func TestReset(t *testing.T) {
	var b Backoff
	for i := 0; i < yieldLimit+10; i++ {
		b.Wait()
	}
	b.Reset()
	if b.n != 0 || b.sleep != 0 {
		t.Fatalf("Reset left state: %+v", b)
	}
}

// TestSetOnStall checks the telemetry hook: a watched waiter that
// trips its stall budget runs the per-waiter observer exactly once
// (the report is once-per-stall), right before the process-wide
// handler.
func TestSetOnStall(t *testing.T) {
	var reports atomic.Uint64
	SetStallHandler(func(string, time.Duration) { reports.Add(1) })
	defer SetStallHandler(nil)

	w := Armed(time.Millisecond, "backoff-test")
	var hookFired atomic.Uint64
	w.SetOnStall(func() { hookFired.Add(1) })

	deadline := time.Now().Add(5 * time.Second)
	for reports.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired")
		}
		w.Wait()
	}
	// Keep waiting: neither the hook nor the handler may fire again
	// before a Reset.
	for i := 0; i < 100; i++ {
		w.Wait()
	}
	if got := hookFired.Load(); got != 1 {
		t.Errorf("onStall hook fired %d times, want exactly 1", got)
	}
	if got := reports.Load(); got != 1 {
		t.Errorf("stall handler fired %d times, want exactly 1", got)
	}

	// Progress re-arms: after Reset the next stall fires the hook again.
	w.Reset()
	for hookFired.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog did not re-arm after Reset")
		}
		w.Wait()
	}

	// nil detaches without disturbing the watchdog itself.
	w.Reset()
	w.SetOnStall(nil)
	before := reports.Load()
	for reports.Load() == before {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never fired after detach")
		}
		w.Wait()
	}
	if got := hookFired.Load(); got != 2 {
		t.Errorf("detached hook fired: %d, want 2", got)
	}
}

// TestWaitUnblocksPeer checks the property the package exists for: a
// goroutine waiting with Backoff lets a runnable peer make progress
// even at GOMAXPROCS=1 (the yield phase hands over the processor).
func TestWaitUnblocksPeer(t *testing.T) {
	var flag atomic.Bool
	go func() {
		time.Sleep(time.Millisecond)
		flag.Store(true)
	}()
	var b Backoff
	deadline := time.Now().Add(5 * time.Second)
	for !flag.Load() {
		if time.Now().After(deadline) {
			t.Fatal("waiter starved the peer")
		}
		b.Wait()
	}
}
