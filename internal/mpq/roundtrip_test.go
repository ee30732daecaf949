package mpq

import (
	"runtime"
	"sync/atomic"
	"testing"

	"hybsync/internal/backoff"
	"hybsync/internal/pad"
)

// roundTripSink keeps the benchmarked receives observable.
var roundTripSink uint64

// BenchmarkRingRoundTrip is the layer benchmark for one blocking Apply's
// transport: a message out on one queue and its echo back on another,
// between two goroutines. The rows pair the queues the constructions
// pair (spsc↔spsc is the benchmark probe's ping-pong, mpsc→spsc is
// MP-SERVER's request and response rings, chan↔chan the ablation
// baseline) with both ways of waiting: spin polls TryRecv and nothing
// else, so the row is the protocol's line transfers alone; block is
// Recv, which adds internal/backoff's escalation; policy is MP-SERVER's
// own waiting, the server polling in backoff's Server role and the
// client awaiting its reply in the Reply role, registered in the
// occupancy estimate as one server and one client. floor is the least
// any protocol could cost on this host — two padded words bounced
// between the same two goroutines — so each spin row reads as
// nanoseconds above the line-transfer floor.
func BenchmarkRingRoundTrip(b *testing.B) {
	// echo runs the responder beside the timed requester loop. The
	// responder's start-up is inside the timing — a spinning requester
	// holds the processor it was spawned on for up to a scheduler
	// quantum — so read the spin rows at 1e5 iterations or more; CI's
	// 10x pass only proves the rows terminate.
	echo := func(b *testing.B, responder, requester func(i uint64)) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(1); i <= uint64(b.N); i++ {
				responder(i)
			}
		}()
		b.ResetTimer()
		for i := uint64(1); i <= uint64(b.N); i++ {
			requester(i)
		}
		b.StopTimer()
		<-done
	}
	needTwoProcs := func(b *testing.B) {
		if runtime.GOMAXPROCS(0) < 2 {
			b.Skip("a pure spin needs its peer on a second processor")
		}
	}

	b.Run("floor/spin", func(b *testing.B) {
		needTwoProcs(b)
		var f struct {
			_    pad.Line
			ping atomic.Uint64
			_    pad.Line
			pong atomic.Uint64
			_    pad.Line
		}
		echo(b, func(i uint64) {
			for f.ping.Load() != i {
			}
			f.pong.Store(i)
		}, func(i uint64) {
			f.ping.Store(i)
			for f.pong.Load() != i {
			}
		})
	})

	spin := func(q Queue) Msg {
		for {
			if m, ok := q.TryRecv(); ok {
				return m
			}
		}
	}
	block := func(q Queue) Msg { return q.Recv() }
	for _, pair := range []struct {
		name      string
		req, resp func() Queue
	}{
		{"spsc-spsc", func() Queue { return NewSpsc(39) }, func() Queue { return NewSpsc(39) }},
		{"mpsc-spsc", func() Queue { return NewMpsc(39) }, func() Queue { return NewSpsc(39) }},
		{"chan-chan", func() Queue { return NewChan(39) }, func() Queue { return NewChan(39) }},
	} {
		for _, wait := range []struct {
			name string
			recv func(Queue) Msg
			spin bool
		}{{"spin", spin, true}, {"block", block, false}} {
			b.Run(pair.name+"/"+wait.name, func(b *testing.B) {
				if wait.spin {
					needTwoProcs(b)
				}
				req, resp := pair.req(), pair.resp()
				echo(b, func(uint64) {
					resp.Send(wait.recv(req))
				}, func(i uint64) {
					req.Send(Word(i))
					roundTripSink += wait.recv(resp).W[0]
				})
			})
		}
	}

	b.Run("mpsc-spsc/policy", func(b *testing.B) {
		backoff.Occupy(1, 1)
		defer backoff.Occupy(-1, -1)
		in := func(q Queue, r backoff.Role) func() Msg {
			w := backoff.For(r)
			return func() Msg {
				m, ok := q.TryRecv()
				if !ok {
					w.Reset()
					for !ok {
						w.Wait()
						m, ok = q.TryRecv()
					}
				}
				return m
			}
		}
		req, resp := NewMpsc(39), NewSpsc(39)
		serve, reply := in(req, backoff.Server), in(resp, backoff.Reply)
		echo(b, func(uint64) {
			resp.Send(serve())
		}, func(i uint64) {
			req.Send(Word(i))
			roundTripSink += reply().W[0]
		})
	})
}
