package shmsync

import (
	"errors"
	"sync"
	"testing"
	"unsafe"

	"hybsync/internal/core"
	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

func TestCCSynchSequential(t *testing.T) {
	var state uint64
	c := NewCCSynch(core.Func(func(op, arg uint64) uint64 {
		old := state
		state += arg
		return old
	}), core.Options{MaxOps: 200})
	h := core.MustHandle(c)
	if got := h.Apply(0, 5); got != 0 {
		t.Fatalf("Apply = %d, want 0", got)
	}
	if got := h.Apply(0, 3); got != 5 {
		t.Fatalf("Apply = %d, want 5", got)
	}
	if state != 8 {
		t.Fatalf("state = %d", state)
	}
}

func TestCCSynchConcurrent(t *testing.T) {
	for _, maxOps := range []int32{1, 3, 200} {
		var state uint64
		c := NewCCSynch(core.Func(func(op, arg uint64) uint64 {
			v := state
			state = v + 1
			return v
		}), core.Options{MaxOps: maxOps})
		const goroutines, per = 12, 3000
		var wg sync.WaitGroup
		seen := make([]map[uint64]bool, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := core.MustHandle(c)
				seen[g] = make(map[uint64]bool, per)
				for i := 0; i < per; i++ {
					seen[g][h.Apply(0, 0)] = true
				}
			}(g)
		}
		wg.Wait()
		if state != goroutines*per {
			t.Fatalf("maxOps=%d: state = %d, want %d", maxOps, state, goroutines*per)
		}
		union := make(map[uint64]bool)
		for _, m := range seen {
			for v := range m {
				if union[v] {
					t.Fatalf("maxOps=%d: duplicate pre-value %d", maxOps, v)
				}
				union[v] = true
			}
		}
		rounds, combined := c.Stats()
		if rounds+combined != goroutines*per {
			t.Fatalf("maxOps=%d: rounds %d + combined %d != %d ops", maxOps, rounds, combined, goroutines*per)
		}
	}
}

func TestSHMServerBasic(t *testing.T) {
	var state uint64
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 {
		old := state
		state = old + arg + op
		return old
	}), core.Options{MaxThreads: 4})
	defer s.Close()
	h := core.MustHandle(s)
	if got := h.Apply(1, 2); got != 0 {
		t.Fatalf("Apply = %d, want 0", got)
	}
	if got := h.Apply(0, 0); got != 3 {
		t.Fatalf("Apply = %d, want 3", got)
	}
}

func TestSHMServerConcurrent(t *testing.T) {
	var state uint64
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}), core.Options{MaxThreads: 32})
	defer s.Close()
	const goroutines, per = 16, 2000
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

func TestSHMServerTooManyClients(t *testing.T) {
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 { return 0 }), core.Options{MaxThreads: 1})
	defer s.Close()
	if _, err := s.NewHandle(); err != nil {
		t.Fatalf("NewHandle: %v", err)
	}
	if _, err := s.NewHandle(); !errors.Is(err, core.ErrTooManyHandles) {
		t.Fatalf("second NewHandle = %v, want ErrTooManyHandles", err)
	}
}

func TestLifecycleAfterClose(t *testing.T) {
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 { return 0 }), core.Options{MaxThreads: 2})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.NewHandle(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
	}

	c := NewCCSynch(core.Func(func(op, arg uint64) uint64 { return 0 }), core.Options{MaxOps: 200})
	if err := c.Close(); err != nil {
		t.Fatalf("ccsynch Close: %v", err)
	}
	if _, err := c.NewHandle(); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("ccsynch NewHandle after Close = %v, want ErrClosed", err)
	}
}

// TestSHMServerRecordsFirstSweep: the server goroutine takes its
// recorder from the Options it was built with, so a server built armed
// records the run length of its very first non-empty sweep — there is
// no later moment at which telemetry attaches. The record follows the
// slot release, hence Close before the read.
func TestSHMServerRecordsFirstSweep(t *testing.T) {
	tel := telemetry.New()
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 { return arg }), core.Options{MaxThreads: 2, Telemetry: tel})
	if s.Telemetry() != tel {
		t.Fatal("Telemetry() is not the core the server was built with")
	}
	core.MustHandle(s).Apply(0, 7)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := tel.Snapshot().RunLen.Count; got != 1 {
		t.Fatalf("run_len count after one Apply = %d, want 1", got)
	}
}

func TestSHMServerZeroResultValues(t *testing.T) {
	// Results of zero must round-trip correctly (the req flag, not the
	// result word, signals completion).
	s := NewSHMServer(core.Func(func(op, arg uint64) uint64 { return 0 }), core.Options{MaxThreads: 2})
	defer s.Close()
	h := core.MustHandle(s)
	for i := 0; i < 100; i++ {
		if got := h.Apply(7, 9); got != 0 {
			t.Fatalf("Apply = %d, want 0", got)
		}
	}
}

func TestSlotLayout(t *testing.T) {
	if !pad.Padded(unsafe.Sizeof(shmSlot{})) {
		t.Fatalf("shmSlot is %d bytes, not a whole number of cache lines", unsafe.Sizeof(shmSlot{}))
	}
}

// TestNodeLayout: a chain cell is exactly one cache line, which is why
// a run cell carries one pointer to its run rather than its slices.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(ccNode{}); got != pad.CacheLine {
		t.Fatalf("ccNode is %d bytes, want one %d-byte cache line", got, pad.CacheLine)
	}
}

// TestCCSynchLineAligned pins what CCSynch's field order relies on (tail
// on the line of the latch and MaxOps): every executor starts on a
// cache-line boundary, whatever size class the struct falls in.
func TestCCSynchLineAligned(t *testing.T) {
	for i := 0; i < 16; i++ {
		c := NewCCSynch(core.Func(func(op, arg uint64) uint64 { return 0 }), core.Options{})
		if off := uintptr(unsafe.Pointer(c)) % pad.CacheLine; off != 0 {
			t.Fatalf("executor %d starts %d bytes into a cache line", i, off)
		}
	}
}
