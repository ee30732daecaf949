package conc

import (
	"sync"
	"testing"
	"testing/quick"

	"hybsync/internal/core"
)

// TestExecutorSequentialEquivalence is a property test: a random
// sequence of operations on a register-machine object applied through
// each executor from a single goroutine must produce exactly the results
// of a plain sequential run.
func TestExecutorSequentialEquivalence(t *testing.T) {
	type opcode struct {
		Op  uint8
		Arg uint16
	}
	model := func(ops []opcode) []uint64 {
		var regs [4]uint64
		out := make([]uint64, len(ops))
		for i, o := range ops {
			r := &regs[o.Op%4]
			switch o.Op % 3 {
			case 0:
				*r += uint64(o.Arg)
			case 1:
				*r ^= uint64(o.Arg)
			case 2:
				*r = *r<<1 | uint64(o.Arg)&1
			}
			out[i] = *r
		}
		return out
	}
	mkDispatch := func() core.Func {
		var regs [4]uint64
		return func(op, arg uint64) uint64 {
			r := &regs[op%4]
			switch op % 3 {
			case 0:
				*r += arg
			case 1:
				*r ^= arg
			case 2:
				*r = *r<<1 | arg&1
			}
			return *r
		}
	}

	for _, exec := range []struct {
		name string
		mk   func(core.Object) core.Executor
	}{
		{"hybcomb", func(obj core.Object) core.Executor {
			return core.NewHybComb(obj, core.Options{MaxThreads: 4})
		}},
		{"mpserver", func(obj core.Object) core.Executor {
			return core.NewMPServer(obj, core.Options{MaxThreads: 4})
		}},
		{"ccsynch", func(obj core.Object) core.Executor {
			return core.NewCCSynch(obj, core.Options{})
		}},
		{"shmserver", func(obj core.Object) core.Executor {
			return core.NewSHMServer(obj, core.Options{MaxThreads: 4})
		}},
	} {
		exec := exec
		t.Run(exec.name, func(t *testing.T) {
			f := func(ops []opcode) bool {
				ex := exec.mk(mkDispatch())
				defer ex.Close()
				h := core.MustHandle(ex)
				want := model(ops)
				for i, o := range ops {
					if h.Apply(uint64(o.Op), uint64(o.Arg)) != want[i] {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLCRQTinyRingConcurrent forces constant ring closing/chaining under
// concurrency (every 4 enqueues exhausts a ring).
func TestLCRQTinyRingConcurrent(t *testing.T) {
	q := NewLCRQueue(4)
	const producers, per = 8, 500
	var wg sync.WaitGroup
	var consumed [producers][]uint64
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				q.Enqueue(uint64(g)<<20 | uint64(i))
				if v := q.Dequeue(); v != EmptyVal {
					consumed[g] = append(consumed[g], v)
				}
			}
		}(g)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	count := 0
	collect := func(vs []uint64) {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("duplicate %x", v)
			}
			seen[v] = true
			count++
		}
	}
	for g := range consumed {
		collect(consumed[g])
	}
	for {
		v := q.Dequeue()
		if v == EmptyVal {
			break
		}
		collect([]uint64{v})
	}
	if count != producers*per {
		t.Fatalf("%d values out, %d in", count, producers*per)
	}
}

// TestLCRQPackingProperty quick-checks the cell encoding round trip.
func TestLCRQPackingProperty(t *testing.T) {
	f := func(safe bool, idx uint32, val uint32) bool {
		s := uint64(0)
		if safe {
			s = 1
		}
		i := uint64(idx) & lcrqIdxCap
		v := uint64(val)
		gs, gi, gv := lcrqUnpack(lcrqPack(s, i, v))
		return gs == s && gi == i && gv == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMPServerTinyQueuesNoDeadlock is the §6 deadlock discussion: with a
// request queue much smaller than the client count, senders experience
// back-pressure but the system must keep making progress (every blocked
// send is followed by a blocking receive, so the server always drains).
func TestMPServerTinyQueuesNoDeadlock(t *testing.T) {
	var state uint64
	s := core.NewMPServer(core.Func(func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}), core.Options{MaxThreads: 64, QueueCap: 2})
	defer s.Close()
	const goroutines, per = 24, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := core.MustHandle(s)
			for i := 0; i < per; i++ {
				h.Apply(0, 0)
			}
		}()
	}
	wg.Wait()
	if state != goroutines*per {
		t.Fatalf("state = %d, want %d", state, goroutines*per)
	}
}

// TestStackConcurrentLIFOWindow: with a single pusher and popper
// operating in strict alternation on a stack via one handle, LIFO
// reduces to echo.
func TestStackConcurrentLIFOWindow(t *testing.T) {
	s, err := NewStack(func(obj core.Object) (core.Executor, error) {
		return core.NewHybComb(obj, core.Options{MaxThreads: 4}), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := s.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 2000; i++ {
		h.Push(i)
		if got := h.Pop(); got != i {
			t.Fatalf("pop = %d, want %d", got, i)
		}
	}
}
