package mpq

import (
	"runtime"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"hybsync/internal/pad"
)

// ringBackends lists the two stamped-cell rings; spscBackends every
// backend that supports one producer + one consumer (all of them);
// mpscBackends every backend that supports many producers + one
// consumer. Deterministic slice order keeps test and benchmark output
// stable.
type namedBackend struct {
	name string
	mk   func(cap int) Queue
}

var (
	chanBackend = namedBackend{"chan", func(c int) Queue { return NewChan(c) }}
	mpscBackend = namedBackend{"mpsc", func(c int) Queue { return NewMpsc(c) }}
	spscBackend = namedBackend{"spsc", func(c int) Queue { return NewSpsc(c) }}
)

func ringBackends() []namedBackend { return []namedBackend{mpscBackend, spscBackend} }
func spscBackends() []namedBackend { return []namedBackend{chanBackend, mpscBackend, spscBackend} }
func mpscBackends() []namedBackend { return []namedBackend{chanBackend, mpscBackend} }

func TestFIFOSingleProducer(t *testing.T) {
	for _, be := range spscBackends() {
		q := be.mk(8)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := uint64(0); i < 1000; i++ {
				m := q.Recv()
				if m.W[0] != i {
					t.Errorf("%s: got %d, want %d", be.name, m.W[0], i)
					return
				}
			}
		}()
		for i := uint64(0); i < 1000; i++ {
			q.Send(Word(i))
		}
		<-done
	}
}

func TestBackPressure(t *testing.T) {
	for _, be := range spscBackends() {
		q := be.mk(4)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Send(Word(uint64(i))) // must block, not drop, beyond cap
			}
		}()
		got := 0
		for i := 0; i < 100; i++ {
			q.Recv()
			got++
		}
		wg.Wait()
		if got != 100 {
			t.Fatalf("%s: received %d of 100", be.name, got)
		}
	}
}

func TestMultiProducerNoLossNoDup(t *testing.T) {
	const producers, per = 8, 2000
	for _, be := range mpscBackends() {
		q := be.mk(39)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					q.Send(Words3(uint64(p), uint64(i), uint64(p*per+i)))
				}
			}(p)
		}
		seen := make(map[uint64]bool)
		lastPerProducer := make([]int64, producers)
		for i := range lastPerProducer {
			lastPerProducer[i] = -1
		}
		for n := 0; n < producers*per; n++ {
			m := q.Recv()
			if m.N != 3 {
				t.Fatalf("%s: message arrived with %d words", be.name, m.N)
			}
			key := m.W[2]
			if seen[key] {
				t.Fatalf("%s: duplicate message %d", be.name, key)
			}
			seen[key] = true
			p, i := m.W[0], int64(m.W[1])
			if i <= lastPerProducer[p] {
				t.Fatalf("%s: per-sender order violated: producer %d sent %d after %d",
					be.name, p, i, lastPerProducer[p])
			}
			lastPerProducer[p] = i
		}
		wg.Wait()
		if !q.Empty() {
			t.Fatalf("%s: queue not empty after draining", be.name)
		}
	}
}

// TestBatchedRecvMultiProducer is TestMultiProducerNoLossNoDup through
// the batched receive path: messages from one sender must stay in order
// across batch boundaries, with nothing lost or duplicated, for every
// batch size (including 1 and sizes larger than the queue).
func TestBatchedRecvMultiProducer(t *testing.T) {
	const producers, per = 8, 2000
	for _, be := range mpscBackends() {
		for _, batch := range []int{1, 7, 64} {
			q := be.mk(39)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						q.Send(Words3(uint64(p), uint64(i), uint64(p*per+i)))
					}
				}(p)
			}
			seen := make(map[uint64]bool)
			last := make([]int64, producers)
			for i := range last {
				last[i] = -1
			}
			buf := make([]Msg, batch)
			for got := 0; got < producers*per; {
				n := q.RecvBatch(buf)
				if n < 1 || n > batch {
					t.Fatalf("%s/batch=%d: RecvBatch returned %d", be.name, batch, n)
				}
				for _, m := range buf[:n] {
					if seen[m.W[2]] {
						t.Fatalf("%s/batch=%d: duplicate message %d", be.name, batch, m.W[2])
					}
					seen[m.W[2]] = true
					p, i := m.W[0], int64(m.W[1])
					if i <= last[p] {
						t.Fatalf("%s/batch=%d: producer %d sent %d after %d",
							be.name, batch, p, i, last[p])
					}
					last[p] = i
				}
				got += n
			}
			wg.Wait()
			if !q.Empty() {
				t.Fatalf("%s/batch=%d: queue not empty after draining", be.name, batch)
			}
		}
	}
}

// TestSpscFIFOBatched streams one sequence through the SPSC queue with a
// batched consumer under heavy back-pressure (tiny capacity).
func TestSpscFIFOBatched(t *testing.T) {
	const total = 20000
	q := NewSpsc(4)
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]Msg, 9)
		next := uint64(0)
		for next < total {
			n := q.RecvBatch(buf)
			for _, m := range buf[:n] {
				if m.W[0] != next {
					t.Errorf("got %d, want %d", m.W[0], next)
					return
				}
				next++
			}
		}
	}()
	for i := uint64(0); i < total; i++ {
		q.Send(Word(i))
	}
	<-done
}

func TestTryRecvAndEmpty(t *testing.T) {
	for _, be := range spscBackends() {
		q := be.mk(4)
		if _, ok := q.TryRecv(); ok {
			t.Fatalf("%s: TryRecv on empty succeeded", be.name)
		}
		if !q.Empty() {
			t.Fatalf("%s: fresh queue not empty", be.name)
		}
		q.Send(Word(7))
		if q.Empty() {
			t.Fatalf("%s: queue empty after send", be.name)
		}
		m, ok := q.TryRecv()
		if !ok || m.W[0] != 7 {
			t.Fatalf("%s: TryRecv = %v,%v", be.name, m, ok)
		}
	}
}

func TestTryRecvBatchEmptyAndZeroBuf(t *testing.T) {
	for _, be := range spscBackends() {
		q := be.mk(4)
		if n := q.TryRecvBatch(make([]Msg, 4)); n != 0 {
			t.Fatalf("%s: TryRecvBatch on empty = %d", be.name, n)
		}
		q.Send(Word(1))
		if n := q.RecvBatch(nil); n != 0 {
			t.Fatalf("%s: RecvBatch(nil) = %d", be.name, n)
		}
		if n := q.TryRecvBatch(nil); n != 0 {
			t.Fatalf("%s: TryRecvBatch(nil) = %d", be.name, n)
		}
		if m, ok := q.TryRecv(); !ok || m.W[0] != 1 {
			t.Fatalf("%s: message lost by zero-length batch calls", be.name)
		}
	}
}

// TestClaimedButUnwrittenCell is the regression test for the documented
// stamp semantics: a reader that observes a cell some producer has
// claimed (position advanced) but not yet written (message and sequence
// stamp pending) must treat the queue as empty rather than return the
// stale cell. We reproduce the producer's half-completed Send
// deterministically by performing only its claim step — on a fresh
// ring, and on the second lap where the cell still carries lap 0's
// message and stamp.
func TestClaimedButUnwrittenCell(t *testing.T) {
	q := NewMpsc(4)
	for lap := uint64(0); lap < 2; lap++ {
		for i := uint64(1); i < 4; i++ { // three pass through: the claim lands on cell 3
			q.Send(Word(i))
			q.Recv()
		}
		// First half of Mpsc.Send: the fetch-and-add claim.
		pos := q.enq.Add(1) - 1
		if _, ok := q.TryRecv(); ok {
			t.Fatalf("lap %d: TryRecv returned a claimed but unwritten cell", lap)
		}
		if n := q.TryRecvBatch(make([]Msg, 4)); n != 0 {
			t.Fatalf("lap %d: TryRecvBatch crossed an unpublished cell: %d", lap, n)
		}
		if !q.Empty() {
			t.Fatalf("lap %d: Empty = false while the head cell is claimed but unwritten", lap)
		}
		cell := &q.cells[pos&q.mask]
		cell.msg = Word(9 + lap)
		cell.seq.Store(pos + 1)
		if m, ok := q.TryRecv(); !ok || m.W[0] != 9+lap {
			t.Fatalf("lap %d: after publish: TryRecv = %v,%v", lap, m, ok)
		}
	}
}

// TestBatchStopsAtUnpublishedCell checks that a batched receive stops at
// a claimed-but-unwritten cell but still returns the published prefix —
// a later producer's publication must not let the consumer skip over an
// earlier in-flight message.
func TestBatchStopsAtUnpublishedCell(t *testing.T) {
	q := NewMpsc(8)
	q.Send(Word(1))
	pos := q.enq.Add(1) - 1         // claim position 1, leave it unwritten
	q.cells[2&q.mask].msg = Word(3) // "publish" position 2 out of order
	q.cells[2&q.mask].seq.Store(3)
	q.enq.Add(1)
	buf := make([]Msg, 8)
	if n := q.TryRecvBatch(buf); n != 1 || buf[0].W[0] != 1 {
		t.Fatalf("batch across unpublished cell: n=%d buf=%v", n, buf[:n])
	}
	// Complete the in-flight publish; the rest drains in order.
	cell := &q.cells[pos&q.mask]
	cell.msg = Word(2)
	cell.seq.Store(pos + 1)
	if n := q.TryRecvBatch(buf); n != 2 || buf[0].W[0] != 2 || buf[1].W[0] != 3 {
		t.Fatalf("drain after publish: n=%d buf=%v", n, buf[:n])
	}
}

func TestRingCapacityRounding(t *testing.T) {
	f := func(c uint8) bool {
		cap := int(c%60) + 1
		q := NewMpsc(cap)
		s := NewSpsc(cap)
		ok := func(n int) bool { return n >= 2 && n&(n-1) == 0 && n >= cap }
		return ok(len(q.cells)) && ok(len(s.cells))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapAround(t *testing.T) {
	// Exercise index wrap-around arithmetic across many laps of tiny
	// rings.
	for _, be := range spscBackends() {
		q := be.mk(2)
		for lap := uint64(0); lap < 10000; lap++ {
			q.Send(Word(lap))
			if m := q.Recv(); m.W[0] != lap {
				t.Fatalf("%s: lap %d: got %d", be.name, lap, m.W[0])
			}
		}
	}
}

func TestMsgConstructors(t *testing.T) {
	if m := Word(5); m.N != 1 || m.W[0] != 5 {
		t.Fatalf("Word: %+v", m)
	}
	if m := Words3(1, 2, 3); m.N != 3 || m.W != [3]uint64{1, 2, 3} {
		t.Fatalf("Words3: %+v", m)
	}
}

// ringOf exposes the stamped-cell state of either production ring, so
// the protocol tests run over both.
func ringOf(q Queue) *ring {
	switch q := q.(type) {
	case *Spsc:
		return &q.ring
	case *Mpsc:
		return &q.ring
	}
	panic("not a stamped-cell ring")
}

// TestStaleStampNeverTaken drives capacity-2 rings through four laps
// one message at a time. The consumer never re-stamps a cell, so before
// each send the head cell still carries the previous lap's stamp and
// message: that must read as empty, never as the message the consumer
// expects next.
func TestStaleStampNeverTaken(t *testing.T) {
	for _, be := range ringBackends() {
		q := be.mk(2)
		r := ringOf(q)
		for pos := uint64(0); pos < 8; pos++ {
			cell := &r.cells[pos&r.mask]
			if pos >= 2 {
				if got := cell.seq.Load(); got != pos-1 {
					t.Fatalf("%s: pos %d: cell stamp %d, want the previous lap's %d (the consumer wrote the cell?)",
						be.name, pos, got, pos-1)
				}
			}
			if _, ok := q.TryRecv(); ok {
				t.Fatalf("%s: pos %d: TryRecv took a stale cell", be.name, pos)
			}
			if n := q.TryRecvBatch(make([]Msg, 2)); n != 0 {
				t.Fatalf("%s: pos %d: TryRecvBatch took %d stale cells", be.name, pos, n)
			}
			if !q.Empty() {
				t.Fatalf("%s: pos %d: Empty = false on a stale cell", be.name, pos)
			}
			q.Send(Word(100 + pos))
			if m, ok := q.TryRecv(); !ok || m.W[0] != 100+pos {
				t.Fatalf("%s: pos %d: TryRecv = %v,%v", be.name, pos, m, ok)
			}
		}
	}
}

// TestParkedAtCapacity checks back-pressure with consumer-silent frees:
// with cap messages in the ring the next Send must neither complete nor
// stamp its cell, and a single receive — which advances deq and touches
// no cell — is what releases it. cap 4 fills every cell, so the parked
// send is the one that would overwrite the oldest message; cap 3 leaves
// a cell unused, because the bound is the capacity asked for, not the
// cell count.
func TestParkedAtCapacity(t *testing.T) {
	for _, be := range ringBackends() {
		for _, cap := range []uint64{3, 4} {
			q := be.mk(int(cap))
			r := ringOf(q)
			for i := uint64(0); i < cap; i++ {
				q.Send(Word(i))
			}
			sent := make(chan struct{})
			go func() {
				defer close(sent)
				q.Send(Word(cap))
			}()
			if m, ok := q.(*Mpsc); ok {
				for m.enq.Load() != cap+1 { // wait for the claim, the last step before parking
					runtime.Gosched()
				}
			}
			for i := 0; i < 100; i++ { // let the producer run; it must stay parked
				runtime.Gosched()
			}
			select {
			case <-sent:
				t.Fatalf("%s/%d: Send into a full ring completed", be.name, cap)
			default:
			}
			if got := r.cells[cap&r.mask].seq.Load(); got == cap+1 {
				t.Fatalf("%s/%d: parked producer stamped its cell", be.name, cap)
			}
			if m, ok := q.TryRecv(); !ok || m.W[0] != 0 {
				t.Fatalf("%s/%d: TryRecv = %v,%v", be.name, cap, m, ok)
			}
			<-sent // deq = 1 lets position cap in
			for want := uint64(1); want <= cap; want++ {
				if m := q.Recv(); m.W[0] != want {
					t.Fatalf("%s/%d: got %d, want %d", be.name, cap, m.W[0], want)
				}
			}
			if m, ok := q.(*Mpsc); ok {
				if seen := m.deqSeen.Load(); seen != 1 {
					t.Fatalf("%d: deqSeen = %d after the parked producer saw deq = 1", cap, seen)
				}
			}
		}
	}
}

// TestDeqSeenConservative hammers a capacity-2 Mpsc with eight
// producers, so nearly every Send finds the ring apparently full and
// the raises of deqSeen race each other. Whatever the outcome of those
// races, the snapshot must never fall and never pass deq — a producer
// trusting a too-high deqSeen would overwrite an unconsumed cell.
func TestDeqSeenConservative(t *testing.T) {
	const producers, per = 8, 2000
	q := NewMpsc(2)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Send(Word(1))
			}
		}()
	}
	var last uint64
	for n := 0; n < producers*per; n++ {
		q.Recv()
		seen := q.deqSeen.Load() // read before deq, which only rises
		if deq := q.deq.Load(); seen > deq {
			t.Fatalf("deqSeen %d above deq %d", seen, deq)
		}
		if seen < last {
			t.Fatalf("deqSeen fell from %d to %d", last, seen)
		}
		last = seen
	}
	wg.Wait()
}

// TestEmptyFromThirdGoroutine polls Empty from a goroutine that is
// neither producer nor consumer while a stream passes through; Empty
// reads only atomics, which the race detector confirms.
func TestEmptyFromThirdGoroutine(t *testing.T) {
	const total = 20000
	q := NewSpsc(4)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				q.Empty()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); i < total; i++ {
			q.Send(Word(i))
		}
	}()
	for i := uint64(0); i < total; i++ {
		if m := q.Recv(); m.W[0] != i {
			t.Fatalf("got %d, want %d", m.W[0], i)
		}
	}
	close(stop)
	wg.Wait()
	if !q.Empty() {
		t.Fatal("drained queue not empty")
	}
}

// TestLayout machine-verifies the cache-line padding (see package pad):
// the producers' words, the consumer's position and the read-only
// geometry of every ring live on different cache lines, deqSeen rides
// on the line the fetch-and-add owns anyway, and a ring cell is a
// whole-line array element whose stamp and message share its first
// line.
func TestLayout(t *testing.T) {
	var m Mpsc
	if !pad.SameLine(unsafe.Offsetof(m.enq), unsafe.Offsetof(m.deqSeen)+unsafe.Sizeof(m.deqSeen)-1) {
		t.Error("Mpsc: enq and deqSeen are on different cache lines")
	}
	if pad.SameLine(unsafe.Offsetof(m.deqSeen)+unsafe.Sizeof(m.deqSeen)-1,
		unsafe.Offsetof(m.deq)) {
		t.Error("Mpsc: producer words (enq+deqSeen) and deq share a cache line")
	}
	var s Spsc
	if pad.SameLine(unsafe.Offsetof(s.deqCache)+unsafe.Sizeof(s.deqCache)-1,
		unsafe.Offsetof(s.deq)) {
		t.Error("Spsc: producer words (enq+deqCache) and deq share a cache line")
	}
	var r ring
	if pad.SameLine(unsafe.Offsetof(r.deq)+unsafe.Sizeof(r.deq)-1, unsafe.Offsetof(r.mask)) {
		t.Error("ring: deq shares a cache line with the read-only geometry")
	}
	if !pad.Padded(unsafe.Sizeof(ringCell{})) {
		t.Errorf("ringCell is %d bytes, not a whole number of cache lines",
			unsafe.Sizeof(ringCell{}))
	}
	if unsafe.Sizeof(ringCellHot{}) > pad.CacheLine {
		t.Errorf("ringCellHot is %d bytes: a message no longer fits one cache line",
			unsafe.Sizeof(ringCellHot{}))
	}
}

// BenchmarkMPQBackends compares the backends per role. spsc-path is the
// MP-SERVER response queue (one producer, one consumer); mpsc-path is
// the request queue (parallel producers, one consumer); mpsc-batch is
// the request queue drained with RecvBatch, the server-loop fast path.
func BenchmarkMPQBackends(b *testing.B) {
	b.Run("spsc-path", func(b *testing.B) {
		for _, be := range spscBackends() {
			b.Run(be.name, func(b *testing.B) {
				q := be.mk(39)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < b.N; i++ {
						q.Recv()
					}
				}()
				for i := 0; i < b.N; i++ {
					q.Send(Words3(1, 2, 3))
				}
				<-done
			})
		}
	})
	b.Run("mpsc-path", func(b *testing.B) {
		for _, be := range mpscBackends() {
			b.Run(be.name, func(b *testing.B) {
				q := be.mk(39)
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < b.N; i++ {
						q.Recv()
					}
				}()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						q.Send(Words3(1, 2, 3))
					}
				})
				<-done
			})
		}
	})
	b.Run("mpsc-batch", func(b *testing.B) {
		for _, be := range mpscBackends() {
			b.Run(be.name, func(b *testing.B) {
				q := be.mk(39)
				done := make(chan struct{})
				go func() {
					defer close(done)
					buf := make([]Msg, 32)
					for got := 0; got < b.N; {
						got += q.RecvBatch(buf)
					}
				}()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						q.Send(Words3(1, 2, 3))
					}
				})
				<-done
			})
		}
	})
}
