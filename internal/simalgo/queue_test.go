package simalgo

import (
	"fmt"
	"testing"

	"hybsync/internal/tilesim"
)

// containerPlan resolves algo over a queue or stack for `threads` procs.
func containerPlan(t *testing.T, algo, object string, threads int) plan {
	t.Helper()
	p, err := resolve(Cell{Algo: algo, Object: object, Threads: threads, MaxOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runContainer drives `threads` producers/consumers doing `opsEach`
// alternating insert/remove operations, recording every removed value,
// then drains the container from one thread. It returns, per producing
// thread, the sequences removed, plus counts.
type containerTrace struct {
	removed  [][]uint64 // per consumer thread, in removal order
	enqueued []uint64   // per producer thread: how many values inserted
	drained  []uint64   // values recovered by the final drain
}

func runContainer(t *testing.T, p plan, opsEach int, insOp, remOp uint64) containerTrace {
	t.Helper()
	e := tilesim.NewEngine(p.prof)
	exec, _, _ := p.wire(e)
	threads, firstCore := p.Threads-1, p.k.servers // the last proc is the drainer
	tr := containerTrace{
		removed:  make([][]uint64, threads),
		enqueued: make([]uint64, threads),
	}
	done := 0
	for i := 0; i < threads; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), firstCore+i, func(p *tilesim.Proc) {
			h := exec.Handle(p)
			var seq uint64
			for k := 0; k < opsEach; k++ {
				if k%2 == 0 {
					h.Apply(insOp, EncodeVal(i, seq))
					tr.enqueued[i]++
					seq++
				} else {
					if v := h.Apply(remOp, 0); v != EmptyVal {
						tr.removed[i] = append(tr.removed[i], v)
					}
				}
				p.Work(p.Rand() % 20)
			}
			done++
		})
	}
	// Drainer: waits for all workers, then empties the container.
	e.Spawn("drain", firstCore+threads, func(p *tilesim.Proc) {
		h := exec.Handle(p)
		for done < threads {
			p.Work(1000)
		}
		for {
			v := h.Apply(remOp, 0)
			if v == EmptyVal {
				return
			}
			tr.drained = append(tr.drained, v)
		}
	})
	e.Run(0)
	e.Shutdown()
	if err := e.CheckCoherence(); err != nil {
		t.Fatalf("%s: coherence: %v", p.k.name, err)
	}
	return tr
}

// checkNoLossNoDup verifies conservation: every inserted value comes out
// exactly once across removals and the final drain.
func checkNoLossNoDup(t *testing.T, name string, tr containerTrace) {
	t.Helper()
	seen := make(map[uint64]int)
	total := 0
	for _, rs := range tr.removed {
		for _, v := range rs {
			seen[v]++
			total++
		}
	}
	for _, v := range tr.drained {
		seen[v]++
		total++
	}
	var inserted int
	for th, n := range tr.enqueued {
		inserted += int(n)
		for s := uint64(0); s < n; s++ {
			v := EncodeVal(th, s)
			switch seen[v] {
			case 1:
			case 0:
				t.Fatalf("%s: value (thread %d, seq %d) lost", name, th, s)
			default:
				t.Fatalf("%s: value (thread %d, seq %d) duplicated %d times", name, th, s, seen[v])
			}
		}
	}
	if total != inserted {
		t.Fatalf("%s: %d values out, %d in (phantom values)", name, total, inserted)
	}
}

// checkProducerOrder verifies per-producer FIFO: within one consumer's
// removals, and within the single-threaded drain, any one producer's
// values appear in increasing sequence order. (Concatenating consumers
// gives no global order, so each is checked on its own.)
func checkProducerOrder(t *testing.T, name string, tr containerTrace) {
	t.Helper()
	for ci, rs := range append(tr.removed, tr.drained) {
		last := make(map[int]uint64)
		for _, v := range rs {
			th, seq := DecodeVal(v)
			if prev, ok := last[th]; ok && seq <= prev {
				t.Fatalf("%s: consumer %d saw producer %d seq %d after %d", name, ci, th, seq, prev)
			}
			last[th] = seq
		}
	}
}

// TestQueueVariantsLinearizable checks conservation plus per-producer
// FIFO order for every registered construction that runs a queue.
func TestQueueVariantsLinearizable(t *testing.T) {
	for _, algo := range Constructions("queue") {
		for _, threads := range []int{2, 8, 20} {
			tr := runContainer(t, containerPlan(t, algo, "queue", threads+1), 400, OpEnq, OpDeq)
			checkNoLossNoDup(t, algo, tr)
			checkProducerOrder(t, algo, tr)
		}
	}
}

// TestStackVariantsConservation checks conservation for every registered
// construction that runs a stack (LIFO order is checked sequentially
// below).
func TestStackVariantsConservation(t *testing.T) {
	for _, algo := range Constructions("stack") {
		for _, threads := range []int{2, 8, 20} {
			tr := runContainer(t, containerPlan(t, algo, "stack", threads+1), 400, OpPush, OpPop)
			checkNoLossNoDup(t, algo, tr)
		}
	}
}

// sequential drives body on one thread of algo over object.
func sequential(t *testing.T, algo, object string, body func(h Handle)) {
	t.Helper()
	p := containerPlan(t, algo, object, 1)
	e := tilesim.NewEngine(p.prof)
	exec, _, _ := p.wire(e)
	e.Spawn("seq", p.k.servers, func(pr *tilesim.Proc) { body(exec.Handle(pr)) })
	e.Run(0)
	e.Shutdown()
}

// TestStackSequentialLIFO drives one thread through every stack variant
// and checks exact LIFO behaviour.
func TestStackSequentialLIFO(t *testing.T) {
	for _, algo := range Constructions("stack") {
		sequential(t, algo, "stack", func(h Handle) {
			for v := uint64(1); v <= 20; v++ {
				h.Apply(OpPush, v)
			}
			for v := uint64(20); v >= 1; v-- {
				if got := h.Apply(OpPop, 0); got != v {
					t.Errorf("%s: pop = %d, want %d", algo, got, v)
					return
				}
			}
			if got := h.Apply(OpPop, 0); got != EmptyVal {
				t.Errorf("%s: pop on empty = %d, want EmptyVal", algo, got)
			}
		})
	}
}

// TestQueueSequentialFIFO drives one thread through every queue variant.
func TestQueueSequentialFIFO(t *testing.T) {
	for _, algo := range Constructions("queue") {
		sequential(t, algo, "queue", func(h Handle) {
			if got := h.Apply(OpDeq, 0); got != EmptyVal {
				t.Errorf("%s: dequeue on empty = %d, want EmptyVal", algo, got)
			}
			for v := uint64(1); v <= 20; v++ {
				h.Apply(OpEnq, v)
			}
			for v := uint64(1); v <= 20; v++ {
				if got := h.Apply(OpDeq, 0); got != v {
					t.Errorf("%s: dequeue = %d, want %d", algo, got, v)
					return
				}
			}
			if got := h.Apply(OpDeq, 0); got != EmptyVal {
				t.Errorf("%s: dequeue on drained = %d, want EmptyVal", algo, got)
			}
		})
	}
}

// TestLCRQRingWrapAndClose forces ring exhaustion with a tiny ring so
// the close-and-append path runs.
func TestLCRQRingWrapAndClose(t *testing.T) {
	e := tilesim.NewEngine(tilesim.ProfileTileGx())
	q := NewLCRQ(e, 4)
	e.Spawn("w", 0, func(p *tilesim.Proc) {
		h := q.Handle(p).(*lcrqHandle)
		for v := uint64(1); v <= 40; v++ {
			h.Enqueue(v) // ring of 4 must close and chain repeatedly
		}
		for v := uint64(1); v <= 40; v++ {
			if got := h.Dequeue(); got != v {
				t.Errorf("wrap: dequeue = %d, want %d", got, v)
				return
			}
		}
		if got := h.Dequeue(); got != EmptyVal {
			t.Errorf("post-drain dequeue = %d, want EmptyVal", got)
		}
	})
	e.Run(0)
	e.Shutdown()

	// The same under contention: the registry's LCRQ has a 1024-cell
	// ring, which 21 threads seldom fill, so swap a 16-cell one in.
	p := containerPlan(t, "LCRQ", "queue", 21)
	p.k.build = func(e *tilesim.Engine, _ Object, _ Cell) Executor { return NewLCRQ(e, 16) }
	tr := runContainer(t, p, 400, OpEnq, OpDeq)
	checkNoLossNoDup(t, "LCRQ/ring=16", tr)
	checkProducerOrder(t, "LCRQ/ring=16", tr)
}

// TestCellPackingRoundTrip is a property test on the LCRQ cell encoding.
func TestCellPackingRoundTrip(t *testing.T) {
	for safe := uint64(0); safe <= 1; safe++ {
		for _, idx := range []uint64{0, 1, 255, idxMask} {
			for _, val := range []uint64{0, 7, lcrqEmpty, 0xFFFFFFFE} {
				s, i, v := unpackCell(packCell(safe, idx, val))
				if s != safe || i != idx || v != val {
					t.Fatalf("pack/unpack mismatch: (%d,%d,%d) -> (%d,%d,%d)",
						safe, idx, val, s, i, v)
				}
			}
		}
	}
}
