package mpq

import "testing"

// windowModel is the trivial reference: a map of live slots and the
// FIFO of sequence numbers still pending.
type windowModel struct {
	next    uint64
	slots   map[uint64]modelSlot
	pending []uint64
}

type modelSlot struct {
	val           uint64
	done, discard bool
}

func (m *windowModel) issue(done bool, val uint64) uint64 {
	seq := m.next
	m.next++
	m.slots[seq] = modelSlot{val: val, done: done}
	if !done {
		m.pending = append(m.pending, seq)
	}
	return seq
}

func (m *windowModel) arrive(val uint64) {
	seq := m.pending[0]
	m.pending = m.pending[1:]
	if m.slots[seq].discard {
		delete(m.slots, seq)
	} else {
		m.slots[seq] = modelSlot{val: val, done: true}
	}
}

func (m *windowModel) take(seq uint64) (uint64, Status) {
	s, ok := m.slots[seq]
	switch {
	case !ok || s.discard:
		return 0, Invalid
	case !s.done:
		return 0, NotReady
	}
	delete(m.slots, seq)
	return s.val, Ready
}

// runWindowScript interprets script as a sequence of window operations
// — issue, born-complete issue, discard, arrive, blocking wait (arrive
// until ready), try-wait, flush, and the pipeline's SubmitBatch (a few
// pending slots, then a run of born-complete ones, numbered from Next)
// — applying each to a Window and to the model, and fails on the first
// disagreement. Operations that would
// violate a precondition (arrival with nothing pending, discard of a
// slot that is not pending) are checked to panic in the Window and
// skipped in the model.
func runWindowScript(t *testing.T, script []byte) {
	var w Window
	m := windowModel{slots: map[uint64]modelSlot{}}
	val := uint64(1000)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	take := func(seq uint64) Status {
		t.Helper()
		gv, gs := w.Take(seq)
		wv, ws := m.take(seq)
		if gv != wv || gs != ws {
			t.Fatalf("Take(%d) = (%d, %d), model says (%d, %d)", seq, gv, gs, wv, ws)
		}
		return gs
	}
	arrive := func() {
		val++
		w.Arrive(val)
		m.arrive(val)
	}
	for i := 0; i+1 < len(script); i += 2 {
		// The ticket an operation names is mostly a live one, sometimes
		// one long retired or never issued.
		seq := uint64(script[i+1])
		if m.next > 0 && script[i+1] < 224 {
			seq %= m.next
		}
		switch script[i] % 8 {
		case 0:
			if got, want := w.Issue(), m.issue(false, 0); got != want {
				t.Fatalf("Issue = %d, model says %d", got, want)
			}
		case 1:
			val++
			if got, want := w.IssueDone(val), m.issue(true, val); got != want {
				t.Fatalf("IssueDone = %d, model says %d", got, want)
			}
		case 2:
			if s, ok := m.slots[seq]; ok && !s.done && !s.discard {
				w.Discard(seq)
				s.discard = true
				m.slots[seq] = s
			} else {
				mustPanic("Discard of a slot that is not pending", func() { w.Discard(seq) })
			}
		case 3:
			if len(m.pending) == 0 {
				mustPanic("Arrive with nothing in flight", func() { w.Arrive(0) })
			} else {
				arrive()
			}
		case 4: // the pipeline's Wait: settle in order until the ticket is ready
			for take(seq) == NotReady {
				arrive()
			}
		case 5:
			take(seq)
		case 6: // the pipeline's Flush
			for w.InFlight() > 0 {
				arrive()
			}
		case 7: // the pipeline's SubmitBatch: an owed prefix, then a banked run
			owed, banked := int(script[i+1]%4), int(script[i+1]/4%8)
			if got, want := w.Next(), m.next; got != want {
				t.Fatalf("Next = %d, model says %d", got, want)
			}
			for j := 0; j < owed+banked; j++ {
				got, want := uint64(0), m.next
				if j < owed {
					got = w.Issue()
					m.issue(false, 0)
				} else {
					val++
					got = w.IssueDone(val)
					m.issue(true, val)
				}
				if got != want {
					t.Fatalf("request %d of a batch took ticket %d, want %d: a batch holds consecutive tickets", j, got, want)
				}
			}
		}
		if got, want := w.InFlight(), len(m.pending); got != want {
			t.Fatalf("InFlight = %d, model says %d", got, want)
		}
		if live := w.next - w.base; live < uint64(len(m.slots)) || live > uint64(len(w.slots)) {
			t.Fatalf("deque spans %d sequence numbers in %d cells, model holds %d live slots",
				live, len(w.slots), len(m.slots))
		}
	}
	// Everything banked is still redeemable, exactly once.
	for w.InFlight() > 0 {
		arrive()
	}
	for seq := uint64(0); seq < m.next; seq++ {
		if take(seq) == Ready && take(seq) != Invalid {
			t.Fatalf("ticket %d redeemed twice", seq)
		}
	}
	if w.base != w.next {
		t.Fatalf("head at %d after every ticket was settled, want %d", w.base, w.next)
	}
}

// TestWindowScripts pins the shapes the pipeline produces: FIFO,
// newest-first across a growth, born-complete slots between pending
// ones, discards, and misuse.
func TestWindowScripts(t *testing.T) {
	for name, script := range map[string][]byte{
		"fifo":           {0, 0, 3, 0, 5, 0, 0, 0, 3, 0, 5, 1},
		"reverse-growth": {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 9, 4, 8, 4, 0, 4, 5},
		"born-complete":  {0, 0, 1, 0, 0, 0, 1, 0, 5, 1, 3, 0, 3, 0, 5, 3, 4, 2, 4, 0},
		"discard":        {0, 0, 0, 0, 2, 0, 2, 0, 3, 0, 5, 0, 3, 0, 5, 1},
		"misuse":         {3, 0, 5, 250, 1, 0, 5, 0, 5, 0, 2, 0, 0, 0, 4, 1, 4, 1},
		"flush":          {0, 0, 1, 0, 0, 0, 2, 2, 6, 0, 5, 0, 5, 1, 5, 2},
		"batches":        {0, 0, 7, 14, 7, 3, 7, 12, 4, 9, 5, 4, 3, 0, 5, 1, 7, 0, 6, 0, 4, 2},
	} {
		t.Run(name, func(t *testing.T) { runWindowScript(t, script) })
	}
}

// TestWindowStaysSmall: a pipeline that redeems in roughly issue order
// — a depth-8 window, every third ticket born complete — keeps a short
// deque however many tickets pass through it.
func TestWindowStaysSmall(t *testing.T) {
	var w Window
	var open []uint64
	for i := uint64(0); i < 100_000; i++ {
		if i%3 == 0 {
			open = append(open, w.IssueDone(i))
		} else {
			open = append(open, w.Issue())
		}
		if len(open) == 8 {
			for w.InFlight() > 0 {
				w.Arrive(i)
			}
			for _, seq := range open {
				if _, st := w.Take(seq); st != Ready {
					t.Fatalf("Take(%d) = status %d", seq, st)
				}
			}
			open = open[:0]
		}
	}
	if len(w.slots) > 16 {
		t.Fatalf("deque grew to %d cells for a window of 8", len(w.slots))
	}
}

// FuzzWindow checks random operation sequences against the model.
func FuzzWindow(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 3, 0, 4, 1, 2, 0, 6, 0, 5, 0})
	f.Add([]byte{0, 0, 2, 0, 0, 0, 4, 1, 5, 0, 5, 250, 3, 0})
	f.Add([]byte{0, 0, 7, 14, 7, 3, 7, 12, 4, 9, 5, 4, 3, 0, 5, 1, 7, 0, 6, 0, 4, 2})
	// A lock handle: a deferred run (born pending, a Post discarded)
	// waited newest-first, an on-the-spot batch (born done), then singles
	// and a ticketed batch behind them whose arrivals pass the banked run.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 4, 3, 7, 16, 0, 0, 0, 0, 7, 3, 4, 12, 5, 5, 6, 0, 4, 0, 4, 2, 5, 1})
	// The hybrid: lock-side pending, flushed at the promotion; a
	// combiner's own request (born done) and registered ones (pending, one
	// discarded), flushed at the demotion; lock-side pending again; Waits
	// out of order across all three kinds.
	f.Add([]byte{0, 0, 0, 0, 6, 0, 1, 0, 0, 0, 0, 0, 2, 4, 6, 0, 0, 0, 0, 0, 4, 6, 4, 0, 4, 2, 5, 3, 4, 5, 5, 4, 4, 1})
	// A HybComb handle: a deferred run (a Post discarded) shipped by a
	// TryWait that finds it not ready — its registered prefix arrives
	// off the ring, then the own-run tail — with more pending work and a
	// batch joining it behind, waited out of order and flushed.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 5, 5, 4, 3, 0, 3, 0, 4, 3, 0, 0, 0, 0, 7, 3, 4, 9, 5, 0, 5, 4, 6, 0, 5, 10, 4, 1})
	f.Fuzz(runWindowScript)
}
