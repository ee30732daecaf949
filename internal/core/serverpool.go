package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
)

// The server constructions share a process-wide pool of server loops:
// at most max(1, GOMAXPROCS−1) goroutines, GOMAXPROCS read when an
// executor is built, so the loops leave a processor to the clients.
// Each MP-SERVER or SHM-SERVER executor is attached to the
// least-loaded loop when it is built and stays there until its Close,
// so every object is still served by exactly one goroutine; a loop
// round-robins over its executors. See DESIGN "Server pool".

// source is one pooled executor as its server loop sees it:
// MP-SERVER's request ring and SHM-SERVER's slots.
type source interface {
	// serve makes one bounded drain of the executor's pending requests
	// and executes them through its own latch, with the loop's scratch.
	// It reports whether it found any, and whether the executor has
	// closed and is drained, so the loop lets it go.
	serve(sc *scratch) (served, drained bool)
}

// scratch is a server loop's drain buffers, allocated by the loop and
// shared by its executors: only one of them drains at a time. Each
// buffer grows to the largest drain any of them has made.
type scratch struct {
	msgs []mpq.Msg
	run  []Req
	rets []uint64
}

// inbox is a receive buffer of n messages.
func (sc *scratch) inbox(n int) []mpq.Msg {
	if len(sc.msgs) < n {
		sc.msgs = make([]mpq.Msg, n)
	}
	return sc.msgs[:n]
}

// results is a result buffer of n words, with room for every request
// run can hold.
func (sc *scratch) results(n int) []uint64 {
	if len(sc.rets) < n {
		sc.rets = make([]uint64, max(n, cap(sc.run)))
	}
	return sc.rets[:n]
}

// member is one executor attached to a loop; done is closed once the
// loop has let it go.
type member struct {
	src  source
	done chan struct{}
}

// serverLoop is one pooled server goroutine.
type serverLoop struct {
	// members is the loop's executors, replaced whole under pool's lock
	// and loaded once per pass.
	members atomic.Pointer[[]member]
}

// pool is the process's live server loops.
var pool struct {
	sync.Mutex
	loops []*serverLoop
}

// attach puts src on the least-loaded server loop, starting a new one
// while fewer than max(1, GOMAXPROCS−1) run. A loop counts itself in
// backoff's occupancy estimate from its start to its exit.
func attach(src source, done chan struct{}) {
	pool.Lock()
	defer pool.Unlock()
	var l *serverLoop
	if len(pool.loops) < max(1, runtime.GOMAXPROCS(0)-1) {
		l = new(serverLoop)
		l.members.Store(new([]member))
		pool.loops = append(pool.loops, l)
		backoff.Occupy(1, 0)
		go l.run()
	} else {
		l = slices.MinFunc(pool.loops, func(a, b *serverLoop) int { return len(*a.members.Load()) - len(*b.members.Load()) })
	}
	ms := *l.members.Load()
	ms = append(slices.Clip(ms), member{src, done})
	l.members.Store(&ms)
}

// run is the server loop. Each pass gives every executor one bounded
// drain and dispatch, on its own object, latch and telemetry recorder;
// a poisoned executor replies zeros and the loop serves the others on.
//
// A pass that finds nothing waits in the Server role: while the server
// loops leave a processor free it spins patiently, as the paper's
// server on its own core does, and otherwise it takes the plain
// ladder.
func (l *serverLoop) run() {
	var sc scratch
	idle := backoff.For(backoff.Server)
	for {
		served := false
		for _, m := range *l.members.Load() {
			s, drained := m.src.serve(&sc)
			served = served || s
			if drained && l.leave(m) {
				return
			}
		}
		if served {
			idle.Reset()
		} else {
			idle.Wait()
		}
	}
}

// leave takes m off the loop and reports whether that emptied it. An
// empty loop leaves the pool and the occupancy estimate before m's
// Close is told, so Close returns with the estimate released.
func (l *serverLoop) leave(m member) (empty bool) {
	pool.Lock()
	ms := slices.DeleteFunc(slices.Clone(*l.members.Load()), func(x member) bool { return x.done == m.done })
	l.members.Store(&ms)
	if empty = len(ms) == 0; empty {
		pool.loops = slices.DeleteFunc(pool.loops, func(x *serverLoop) bool { return x == l })
		backoff.Occupy(-1, 0)
	}
	pool.Unlock()
	close(m.done)
	return empty
}
