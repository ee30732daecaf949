package conc

import (
	"fmt"
	"sync"
	"testing"

	"hybsync/internal/core"
)

// factories enumerates every construction as an ExecutorFactory through
// the algorithm registry; the objects' own Close shuts servers down.
func factories() map[string]ExecutorFactory {
	mk := func(name string, opts ...core.Option) ExecutorFactory {
		return func(obj core.Object) (core.Executor, error) {
			return core.NewObject(name, obj, opts...)
		}
	}
	return map[string]ExecutorFactory{
		"mpserver":        mk("mpserver", core.WithMaxThreads(64)),
		"hybcomb":         mk("hybcomb", core.WithMaxThreads(64)),
		"hybcomb-maxops1": mk("hybcomb", core.WithMaxThreads(64), core.WithMaxOps(1)),
		"ccsynch":         mk("ccsynch"),
		"ccsynch-maxops1": mk("ccsynch", core.WithMaxOps(1)),
		"shmserver":       mk("shmserver", core.WithMaxThreads(64)),
		"mcs-lock":        mk("mcs-lock"),
		"hybrid":          mk("hybrid", core.WithMaxThreads(64)),
	}
}

// TestCounterAllExecutors checks mutual exclusion: goroutines hammer a
// counter; the final value must equal the total increments and the
// returned previous-values must all be distinct.
func TestCounterAllExecutors(t *testing.T) {
	const goroutines, per = 16, 2000
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			c, err := NewCounter(f)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			seen := make([][]uint64, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := c.NewHandle()
					if err != nil {
						panic(err)
					}
					for i := 0; i < per; i++ {
						seen[g] = append(seen[g], h.Inc())
					}
				}(g)
			}
			wg.Wait()
			if got := c.Value(); got != goroutines*per {
				t.Fatalf("counter = %d, want %d", got, goroutines*per)
			}
			dup := make(map[uint64]bool, goroutines*per)
			for _, vs := range seen {
				for _, v := range vs {
					if dup[v] {
						t.Fatalf("previous-value %d returned twice (CS not exclusive)", v)
					}
					dup[v] = true
				}
			}
		})
	}
}

// prodConsCheck runs a balanced produce/consume workload plus drain, then
// verifies conservation and per-producer ordering (order only for FIFO).
func prodConsCheck(t *testing.T, name string, enq func(uint64), deq func() uint64, fifo bool, producers, per int) {
	t.Helper()
	var wg sync.WaitGroup
	consumed := make([][]uint64, producers)
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				enq(uint64(g)<<20 | uint64(i))
				if v := deq(); v != EmptyVal {
					consumed[g] = append(consumed[g], v)
				}
			}
		}(g)
	}
	wg.Wait()
	for {
		v := deq()
		if v == EmptyVal {
			break
		}
		consumed[0] = append(consumed[0], v)
	}
	seen := make(map[uint64]bool)
	count := 0
	for ci, vs := range consumed {
		last := make(map[uint64]int64)
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("%s: duplicate value %x", name, v)
			}
			seen[v] = true
			count++
			if fifo {
				p, s := v>>20, int64(v&0xFFFFF)
				if prev, ok := last[p]; ok && s <= prev {
					t.Fatalf("%s: consumer %d saw producer %d out of order (%d after %d)",
						name, ci, p, s, prev)
				}
				last[p] = s
			}
		}
	}
	if count != producers*per {
		t.Fatalf("%s: %d values out, %d in", name, count, producers*per)
	}
}

func TestQueuesAllExecutors(t *testing.T) {
	const producers, per = 12, 1500
	for name, f := range factories() {
		t.Run("MSQueue1/"+name, func(t *testing.T) {
			q, err := NewMSQueue1(f)
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			var wg sync.WaitGroup
			consumed := make([][]uint64, producers)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := q.NewHandle()
					if err != nil {
						panic(err)
					}
					for i := 0; i < per; i++ {
						h.Enqueue(uint64(g)<<20 | uint64(i))
						if v := h.Dequeue(); v != EmptyVal {
							consumed[g] = append(consumed[g], v)
						}
					}
				}(g)
			}
			wg.Wait()
			h, err := q.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			for {
				v := h.Dequeue()
				if v == EmptyVal {
					break
				}
				consumed[0] = append(consumed[0], v)
			}
			seen := make(map[uint64]bool)
			count := 0
			for ci, vs := range consumed {
				last := make(map[uint64]int64)
				for _, v := range vs {
					if seen[v] {
						t.Fatalf("duplicate value %x", v)
					}
					seen[v] = true
					count++
					p, s := v>>20, int64(v&0xFFFFF)
					if prev, ok := last[p]; ok && s <= prev {
						t.Fatalf("consumer %d saw producer %d out of order (%d after %d)",
							ci, p, s, prev)
					}
					last[p] = s
				}
			}
			if count != producers*per {
				t.Fatalf("%d values out, %d in", count, producers*per)
			}
		})
	}
}

// TestQueueHandlesPerGoroutine is the plain per-goroutine-handle usage.
func TestQueueHandlesPerGoroutine(t *testing.T) {
	for _, name := range []string{"hybcomb", "mpserver", "ccsynch", "shmserver"} {
		t.Run(name, func(t *testing.T) {
			q, err := NewMSQueue1(factories()[name])
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			var wg sync.WaitGroup
			const producers, per = 8, 1000
			total := make([]uint64, producers)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := q.NewHandle()
					if err != nil {
						panic(err)
					}
					for i := 0; i < per; i++ {
						h.Enqueue(uint64(g)<<20 | uint64(i))
						if h.Dequeue() != EmptyVal {
							total[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			h, err := q.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			var drained uint64
			for h.Dequeue() != EmptyVal {
				drained++
			}
			var consumed uint64
			for _, n := range total {
				consumed += n
			}
			if consumed+drained != producers*per {
				t.Fatalf("lost values: consumed %d + drained %d != %d",
					consumed, drained, producers*per)
			}
		})
	}
}

func TestMSQueue2TwoSides(t *testing.T) {
	q, err := NewMSQueue2(factories()["mpserver"])
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	h, err := q.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	prodConsCheck(t, "MSQueue2/mpserver",
		h.Enqueue, h.Dequeue, true, 1, 5000)

	// Concurrent: many producers/consumers on separate handles.
	q2, err := NewMSQueue2(factories()["mpserver"])
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	var wg sync.WaitGroup
	const producers, per = 8, 1000
	var consumedTotal [producers]uint64
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := q2.NewHandle()
			if err != nil {
				panic(err)
			}
			for i := 0; i < per; i++ {
				h.Enqueue(uint64(g)<<20 | uint64(i))
				if h.Dequeue() != EmptyVal {
					consumedTotal[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	h2, err := q2.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	var drained, consumed uint64
	for h2.Dequeue() != EmptyVal {
		drained++
	}
	for _, n := range consumedTotal {
		consumed += n
	}
	if consumed+drained != producers*per {
		t.Fatalf("MSQueue2 lost values: %d + %d != %d", consumed, drained, producers*per)
	}
}

func TestLCRQueue(t *testing.T) {
	// Sequential FIFO including ring wrap and close.
	q := NewLCRQueue(8)
	if q.Dequeue() != EmptyVal {
		t.Fatal("fresh queue not empty")
	}
	for v := uint64(0); v < 100; v++ {
		q.Enqueue(v)
	}
	for v := uint64(0); v < 100; v++ {
		if got := q.Dequeue(); got != v {
			t.Fatalf("dequeue = %d, want %d", got, v)
		}
	}
	// Concurrent conservation.
	q2 := NewLCRQueue(64)
	prodConsCheck(t, "LCRQ", q2.Enqueue, q2.Dequeue, true, 12, 1500)
}

func TestStacksAllExecutors(t *testing.T) {
	for name, f := range factories() {
		t.Run(name, func(t *testing.T) {
			s, err := NewStack(f)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			h, err := s.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			// Sequential LIFO.
			for v := uint64(1); v <= 50; v++ {
				h.Push(v)
			}
			for v := uint64(50); v >= 1; v-- {
				if got := h.Pop(); got != v {
					t.Fatalf("pop = %d, want %d", got, v)
				}
			}
			if h.Pop() != EmptyVal {
				t.Fatal("pop on empty != EmptyVal")
			}
			// Concurrent conservation.
			var wg sync.WaitGroup
			const producers, per = 8, 800
			counts := make([]uint64, producers)
			for g := 0; g < producers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					h, err := s.NewHandle()
					if err != nil {
						panic(err)
					}
					for i := 0; i < per; i++ {
						h.Push(uint64(g)<<20 | uint64(i))
						if h.Pop() != EmptyVal {
							counts[g]++
						}
					}
				}(g)
			}
			wg.Wait()
			var drained, consumed uint64
			for h.Pop() != EmptyVal {
				drained++
			}
			for _, n := range counts {
				consumed += n
			}
			if consumed+drained != producers*per {
				t.Fatalf("stack lost values: %d + %d != %d", consumed, drained, producers*per)
			}
		})
	}
}

func TestTreiberStack(t *testing.T) {
	s := NewTreiberStack()
	for v := uint64(1); v <= 50; v++ {
		s.Push(v)
	}
	for v := uint64(50); v >= 1; v-- {
		if got := s.Pop(); got != v {
			t.Fatalf("pop = %d, want %d", got, v)
		}
	}
	prodConsCheck(t, "Treiber", s.Push, s.Pop, false, 12, 1500)
}

func TestHybCombStats(t *testing.T) {
	hc := core.NewHybComb(core.Func(func(op, arg uint64) uint64 { return arg }), core.Options{MaxThreads: 32})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := core.MustHandle(hc)
			for i := uint64(0); i < 1000; i++ {
				if got := h.Apply(0, i); got != i {
					t.Errorf("Apply returned %d, want %d", got, i)
					return
				}
			}
		}()
	}
	wg.Wait()
	rounds, _ := hc.Stats()
	if rounds == 0 {
		t.Fatal("no combining rounds recorded")
	}
}

func ExampleCounter() {
	ctr, err := NewCounter(func(obj core.Object) (core.Executor, error) {
		return core.NewObject("hybcomb", obj)
	})
	if err != nil {
		panic(err)
	}
	h, err := ctr.NewHandle()
	if err != nil {
		panic(err)
	}
	h.Inc()
	h.Inc()
	fmt.Println(ctr.Value())
	// Output: 2
}
