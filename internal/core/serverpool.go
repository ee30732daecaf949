package core

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hybsync/internal/backoff"
	"hybsync/internal/mpq"
	"hybsync/internal/telemetry"
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
	// drain makes one bounded drain of the executor's pending requests
	// and executes them through its own latch, with the loop's scratch.
	// It reports whether it found any.
	drain(sc *scratch) (served bool)
}

// server is the part MP-SERVER and SHM-SERVER share: the shell, the
// protected object, and what the server loop, Close and the clients
// that publish after Close use to let the executor go.
type server struct {
	Shell
	obj Object
	rec *telemetry.Recorder // the server loop's, for this executor
	// done is closed once the server loop has let the executor go.
	done chan struct{}
	// clients counts the handles in backoff's occupancy estimate; the
	// server loop counts itself, once for all its executors.
	clients occupants
	// late serializes the drains clients make themselves once the
	// server loop has let the executor go (see pastSeal).
	late sync.Mutex
}

// init names the construction, fills its options and readies the
// server part. The construction builds its own state after it and
// attaches itself last, before the executor is shared.
func (s *server) init(algo string, obj Object, o Options) {
	s.Shell.init(algo, o)
	s.obj, s.rec, s.done = obj, s.Opts.Telemetry.Recorder(), make(chan struct{})
}

// Close implements Executor for both server constructions. The first
// call seals the executor, waits for the server loop to drain it and
// let it go, and gives back its handles' occupancy. It is idempotent;
// on a poisoned executor it still detaches the executor and reports
// the *PoisonError.
func (s *server) Close() error {
	if s.seal() {
		<-s.done
		s.clients.leave()
	}
	return s.Err()
}

// pastSeal is a client's one step past Close, taken after every
// publish of a request to src (whose server part is s): the client
// reads the seal only once its request is out. If the seal is
// not there yet, the publish came before it, so the loop's drain
// after its own read of the seal finds the request. If it is, the
// loop may have let the executor go without it, so the client waits
// for the loop to be done and drains src itself, under late, until
// nothing is left — its own request and any other whose sender is
// still on its way here. A drain that stops at a request claimed but
// not yet written leaves it to that request's sender, which reads
// the seal after it publishes. The drain dispatches through the latch,
// which contains a fault, so late is always released.
func (s *server) pastSeal(src source) {
	if !s.sealed.Load() {
		return
	}
	<-s.done
	s.late.Lock()
	var sc scratch
	for src.drain(&sc) {
	}
	s.late.Unlock()
}

// occupants is a server construction's share of backoff's occupancy
// estimate beyond its server loop: each handle it admitted, counted at
// NewHandle until Close gives them all back. A handle admitted while
// Close runs is counted before Close or not at all.
type occupants struct {
	mu     sync.Mutex
	n      int32 // so n and closed share one word
	closed bool
}

// join counts one admitted handle.
func (o *occupants) join() {
	o.mu.Lock()
	if !o.closed {
		o.n++
		backoff.Occupy(0, 1)
	}
	o.mu.Unlock()
}

// leave gives every counted handle back; later calls do nothing.
func (o *occupants) leave() {
	o.mu.Lock()
	if !o.closed {
		o.closed = true
		backoff.Occupy(0, -int(o.n))
	}
	o.mu.Unlock()
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

// member is one executor attached to a loop: its drain, and the
// server part that tells the loop when to let it go.
type member struct {
	src source
	s   *server
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

// attach puts src, whose server part is s, on the least-loaded server
// loop, starting a new one while fewer than max(1, GOMAXPROCS−1) run.
// A loop counts itself in backoff's occupancy estimate from its start
// to its exit.
func attach(src source, s *server) {
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
	ms = append(slices.Clip(ms), member{src, s})
	l.members.Store(&ms)
}

// run is the server loop. Each pass gives every executor one bounded
// drain and dispatch, on its own object, latch and telemetry recorder;
// a poisoned executor replies zeros and the loop serves the others on.
//
// A closing executor is let go by one rule: the loop reads its seal
// before the drain, and a drain that finds nothing after a read that
// saw the seal ends its membership. A client reads the seal after it
// publishes (see pastSeal), so a request whose sender saw no seal
// was out before the seal and that drain sees it; a sender that
// saw the seal drains for itself. The drain before the seal's read may
// have missed a request whose publish had not landed yet, which is
// why the seal is read first.
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
			sealed := m.s.sealed.Load()
			if m.src.drain(&sc) {
				served = true
			} else if sealed && l.leave(m) {
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
	ms := slices.DeleteFunc(slices.Clone(*l.members.Load()), func(x member) bool { return x.s == m.s })
	l.members.Store(&ms)
	if empty = len(ms) == 0; empty {
		pool.loops = slices.DeleteFunc(pool.loops, func(x *serverLoop) bool { return x == l })
		backoff.Occupy(-1, 0)
	}
	pool.Unlock()
	close(m.s.done)
	return empty
}
