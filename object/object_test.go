package object_test

import (
	"errors"
	"sync"
	"testing"

	"hybsync"
	"hybsync/object"
)

// TestCounterByName round-trips the counter over every registered
// algorithm: concurrent increments must be exact, and the object's
// lifecycle must mirror its executor's.
func TestCounterByName(t *testing.T) {
	const goroutines, per = 4, 250
	for _, algo := range hybsync.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			c, err := object.NewCounter(algo, hybsync.WithMaxThreads(goroutines))
			if err != nil {
				t.Fatalf("NewCounter(%q): %v", algo, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h, err := c.NewHandle()
				if err != nil {
					t.Fatalf("NewHandle: %v", err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						h.Inc()
					}
				}()
			}
			wg.Wait()
			if got := c.Value(); got != goroutines*per {
				t.Fatalf("counter = %d, want %d", got, goroutines*per)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := c.NewHandle(); !errors.Is(err, hybsync.ErrClosed) {
				t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestUnknownAlgorithmPropagates(t *testing.T) {
	if _, err := object.NewCounter("no-such-algo"); !errors.Is(err, hybsync.ErrUnknownAlgorithm) {
		t.Fatalf("NewCounter(unknown) = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := object.NewMSQueue2("no-such-algo"); !errors.Is(err, hybsync.ErrUnknownAlgorithm) {
		t.Fatalf("NewMSQueue2(unknown) = %v, want ErrUnknownAlgorithm", err)
	}
}

// Every executor-backed object answers Err() through the facade's
// aliases: nil while healthy, the *PoisonError once its executor is
// condemned (the counter is the one with a public fault hook; the
// in-package internal/conc test poisons the others from inside).
func TestObjectsExposeErr(t *testing.T) {
	type errObject interface {
		Err() error
		Close() error
	}
	for _, algo := range hybsync.Algorithms() {
		ctr, err := object.NewCounter(algo)
		if err != nil {
			t.Fatal(err)
		}
		q1, err1 := object.NewMSQueue1(algo)
		q2, err2 := object.NewMSQueue2(algo)
		st, err3 := object.NewStack(algo)
		if err := errors.Join(err1, err2, err3); err != nil {
			t.Fatal(err)
		}
		for _, obj := range []errObject{ctr, q1, q2, st} {
			if err := obj.Err(); err != nil {
				t.Errorf("%s: healthy %T reports %v", algo, obj, err)
			}
		}
		ctr.Poison("invariant violated")
		var pe *hybsync.PoisonError
		if err := ctr.Err(); !errors.Is(err, hybsync.ErrPoisoned) || !errors.As(err, &pe) {
			t.Errorf("%s: poisoned counter reports %v", algo, err)
		}
		for _, obj := range []errObject{q1, q2, st} {
			if err := obj.Close(); err != nil || obj.Err() != nil {
				t.Errorf("%s: %T: Close = %v, Err = %v", algo, obj, err, obj.Err())
			}
		}
		ctr.Close()
	}
}

// TestQueueFIFOByName checks single-handle FIFO order through both
// MS-Queue forms over a server construction.
func TestQueueFIFOByName(t *testing.T) {
	builders := map[string]func() (interface {
		NewHandle() (*object.QueueHandle, error)
		Close() error
	}, error){
		"MSQueue1/mpserver": func() (interface {
			NewHandle() (*object.QueueHandle, error)
			Close() error
		}, error) {
			return object.NewMSQueue1("mpserver", hybsync.WithMaxThreads(4))
		},
		"MSQueue2/mpserver": func() (interface {
			NewHandle() (*object.QueueHandle, error)
			Close() error
		}, error) {
			return object.NewMSQueue2("mpserver", hybsync.WithMaxThreads(4))
		},
	}
	for name, mk := range builders {
		t.Run(name, func(t *testing.T) {
			q, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			defer q.Close()
			h, err := q.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			for v := uint64(0); v < 500; v++ {
				h.Enqueue(v)
			}
			for v := uint64(0); v < 500; v++ {
				if got := h.Dequeue(); got != v {
					t.Fatalf("dequeue = %d, want %d", got, v)
				}
			}
			if h.Dequeue() != object.EmptyVal {
				t.Fatal("drained queue not empty")
			}
		})
	}
}

// TestStackLIFOByName checks LIFO order over a combining construction,
// and the nonblocking structures' basic behavior.
func TestStackLIFOByName(t *testing.T) {
	s, err := object.NewStack("ccsynch")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for v := uint64(1); v <= 100; v++ {
		h.Push(v)
	}
	for v := uint64(100); v >= 1; v-- {
		if got := h.Pop(); got != v {
			t.Fatalf("pop = %d, want %d", got, v)
		}
	}

	ts := object.NewTreiberStack()
	ts.Push(42)
	if got := ts.Pop(); got != 42 {
		t.Fatalf("Treiber pop = %d, want 42", got)
	}

	lq := object.NewLCRQueue(16)
	lq.Enqueue(7)
	if got := lq.Dequeue(); got != 7 {
		t.Fatalf("LCRQ dequeue = %d, want 7", got)
	}
}

// TestShardedCounterByName round-trips the sharded counter over a
// representative construction per family: concurrent keyed increments
// must conserve exactly, and occupancy must account for every op.
func TestShardedCounterByName(t *testing.T) {
	const goroutines, per, nshards = 4, 500, 4
	for _, algo := range []string{"mpserver", "hybcomb", "ccsynch", "mcs-lock"} {
		t.Run(algo, func(t *testing.T) {
			c, err := object.NewShardedCounter(algo, nshards, hybsync.WithMaxThreads(8))
			if err != nil {
				t.Fatalf("NewShardedCounter(%q): %v", algo, err)
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h, err := c.NewHandle()
				if err != nil {
					t.Fatalf("NewHandle: %v", err)
				}
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					for i := uint64(0); i < per; i++ {
						if _, err := h.Inc(seed*2654435761 + i); err != nil {
							panic(err)
						}
					}
				}(uint64(g + 1))
			}
			wg.Wait()
			if got := c.Value(); got != goroutines*per {
				t.Fatalf("sharded counter = %d, want %d", got, goroutines*per)
			}
			var occ uint64
			for _, n := range c.Occupancy() {
				occ += n
			}
			if occ != goroutines*per {
				t.Fatalf("occupancy accounts for %d ops, want %d", occ, goroutines*per)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := c.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := c.NewHandle(); !errors.Is(err, hybsync.ErrClosed) {
				t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestMapByName exercises the sharded map's basic contract through the
// public constructor: put/get/delete round-trip, the EmptyVal/
// MapFullVal sentinels, and a concurrent keyed smoke under -race.
func TestMapByName(t *testing.T) {
	m, err := object.NewMap("mpserver", 4, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := h.Get(7); got != object.EmptyVal {
		t.Fatalf("Get on empty map = %#x, want EmptyVal", got)
	}
	if got, _ := h.Put(7, 70); got != object.EmptyVal {
		t.Fatalf("fresh Put = %#x, want EmptyVal", got)
	}
	if got, _ := h.Put(7, 71); got != 70 {
		t.Fatalf("overwrite = %#x, want 70", got)
	}
	if got, _ := h.Get(7); got != 71 {
		t.Fatalf("Get = %#x, want 71", got)
	}
	if got, _ := h.Delete(7); got != 71 {
		t.Fatalf("Delete = %#x, want 71", got)
	}

	const goroutines, per = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		gh, err := m.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(base uint32) {
			defer wg.Done()
			// Disjoint key ranges per goroutine so results are checkable.
			for i := uint32(0); i < per; i++ {
				if _, err := gh.Put(base+i, i); err != nil {
					panic(err)
				}
			}
			for i := uint32(0); i < per; i++ {
				v, err := gh.Get(base + i)
				if err != nil {
					panic(err)
				}
				if v != uint64(i) {
					panic("sharded map lost a write")
				}
			}
		}(uint32(g) * 10_000)
	}
	wg.Wait()
	n, err := h.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != goroutines*per {
		t.Fatalf("Len = %d, want %d", n, goroutines*per)
	}
}
