package core_test

import (
	"slices"
	"testing"

	"hybsync/internal/core"
)

// scripted is a transport whose runs execute on the spot except for
// their first owe requests, which it leaves owed (see scriptedOwing),
// stopping at the window's room as Run's contract asks. Results are
// execution indices, so ticket order is visible in the values, and runs
// records the length of every run the transport took.
type scripted struct {
	owe  int
	n    uint64
	owed []uint64
	runs []int
}

func (s *scripted) Run(reqs []core.Req, rets []uint64, room int) (owed int) {
	owed = min(s.owe, len(reqs), room)
	if owed == room {
		reqs = reqs[:room]
	}
	s.runs = append(s.runs, len(reqs))
	for i := range reqs {
		if i < owed {
			s.owed = append(s.owed, s.n)
		} else {
			rets[i] = s.n
		}
		s.n++
	}
	return owed
}

// scriptedOwing is scripted with Next, a core.Owing: it delivers the
// owed results in order.
type scriptedOwing struct{ scripted }

func (s *scriptedOwing) Next(bool) (uint64, bool) {
	v := s.owed[0]
	s.owed = s.owed[1:]
	return v, true
}

// TestPipeHandsOverRuns pins when the Pipe hands a run to its transport,
// over scripted transports and a window of 4: a deferring pipe gathers
// submissions until a completion is demanded, an eager one hands each
// over at once, a batch longer than the window is one run unless the
// transport stops at the room — then the rest follows, a run per slot
// the oldest completion frees — and a batch behind a pending run joins
// it. Every ticket redeems its execution index, and the window never
// holds more than 4.
func TestPipeHandsOverRuns(t *testing.T) {
	const depth = 4
	batch := func(n int) func(h core.Handle) []core.Ticket {
		return func(h core.Handle) []core.Ticket {
			tk, _ := h.SubmitBatch(make([]core.Req, n))
			return offsets(tk, n)
		}
	}
	for _, c := range []struct {
		name  string
		owe   int // requests each run leaves owed; -1: no Next at all
		eager bool
		do    func(h core.Handle) []core.Ticket
		want  []uint64 // the tickets' results
		// runs handed over by the time do returns, and after a Flush
		before, runs []int
	}{
		{"deferring-submits", -1, false, func(h core.Handle) []core.Ticket {
			a, _ := h.Submit(0, 0)
			b, _ := h.Submit(0, 0)
			h.Post(0, 0)
			c, _ := h.Submit(0, 0)
			return []core.Ticket{a, b, c}
		}, []uint64{0, 1, 3}, nil, []int{4}},
		{"eager-submits", 1, true, func(h core.Handle) []core.Ticket {
			a, _ := h.Submit(0, 0)
			h.Post(0, 0)
			b, _ := h.Submit(0, 0)
			return []core.Ticket{a, b}
		}, []uint64{0, 2}, []int{1, 1, 1}, []int{1, 1, 1}},
		{"batch-never-owes", -1, false, batch(10),
			[]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{10}, []int{10}},
		{"batch-owes-a-prefix", 2, false, batch(10),
			[]uint64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, []int{10}, []int{10}},
		{"batch-stops-at-the-room", 3, false, func(h core.Handle) []core.Ticket {
			a, _ := h.Submit(0, 0)
			b, _ := h.Submit(0, 0)
			h.Wait(a)
			return append([]core.Ticket{b}, batch(6)(h)...)
		}, []uint64{1, 2, 3, 4, 5, 6, 7}, []int{2, 3, 1, 1, 1}, []int{2, 3, 1, 1, 1}},
		{"batch-owes-everything", 10, true, batch(6),
			[]uint64{0, 1, 2, 3, 4, 5}, []int{4, 1, 1}, []int{4, 1, 1}},
		{"batch-behind-a-pending-run", 2, false, func(h core.Handle) []core.Ticket {
			a, _ := h.Submit(0, 0)
			return append([]core.Ticket{a}, batch(5)(h)...)
		}, []uint64{0, 1, 2, 3, 4, 5}, []int{4}, []int{4, 2}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := &scripted{}
			var tr core.Transport = s
			if c.owe >= 0 {
				o := &scriptedOwing{scripted{owe: c.owe}}
				s, tr = &o.scripted, o
			}
			h, ctr := core.NewTestPipe(tr, depth, c.eager)
			tks := c.do(h)
			if !slices.Equal(s.runs, c.before) {
				t.Errorf("runs handed over before a completion was demanded: %v, want %v", s.runs, c.before)
			}
			h.Flush()
			if !slices.Equal(s.runs, c.runs) {
				t.Errorf("runs handed over: %v, want %v", s.runs, c.runs)
			}
			for i, tk := range tks {
				if v := h.Wait(tk); v != c.want[i] {
					t.Errorf("Wait(ticket %d) = %d, want %d", i, v, c.want[i])
				}
			}
			if _, d := ctr.Pipeline(); d > depth {
				t.Errorf("the window reached %d, past its %d", d, depth)
			}
		})
	}
}

func offsets(tk core.Ticket, n int) []core.Ticket {
	tks := make([]core.Ticket, n)
	for i := range tks {
		tks[i] = tk.Offset(i)
	}
	return tks
}
