package core

import (
	"errors"
	"sync"
	"testing"
	"unsafe"

	"hybsync/internal/pad"
	"hybsync/internal/telemetry"
)

func TestSHMServerBasic(t *testing.T) {
	var state uint64
	s := NewSHMServer(Func(func(op, arg uint64) uint64 {
		old := state
		state = old + arg + op
		return old
	}), Options{MaxThreads: 4})
	defer s.Close()
	h := MustHandle(s)
	if got := h.Apply(1, 2); got != 0 {
		t.Fatalf("Apply = %d, want 0", got)
	}
	if got := h.Apply(0, 0); got != 3 {
		t.Fatalf("Apply = %d, want 3", got)
	}
}

func TestSHMServerConcurrent(t *testing.T) {
	var state uint64
	s := NewSHMServer(Func(func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}), Options{MaxThreads: 32})
	defer s.Close()
	const goroutines, per = 16, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := MustHandle(s)
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
	s := NewSHMServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 1})
	defer s.Close()
	if _, err := s.NewHandle(); err != nil {
		t.Fatalf("NewHandle: %v", err)
	}
	if _, err := s.NewHandle(); !errors.Is(err, ErrTooManyHandles) {
		t.Fatalf("second NewHandle = %v, want ErrTooManyHandles", err)
	}
}

func TestLifecycleAfterClose(t *testing.T) {
	s := NewSHMServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 2})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := s.NewHandle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
	}

	c := NewCCSynch(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxOps: 200})
	if err := c.Close(); err != nil {
		t.Fatalf("ccsynch Close: %v", err)
	}
	if _, err := c.NewHandle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ccsynch NewHandle after Close = %v, want ErrClosed", err)
	}
}

// TestSHMServerRecordsFirstSweep: the executor takes its server loop's
// recorder from the Options it was built with, so a server built armed
// records the run length of its very first non-empty sweep — there is
// no later moment at which telemetry attaches. The record follows the
// slot release, hence Close before the read.
func TestSHMServerRecordsFirstSweep(t *testing.T) {
	tel := telemetry.New()
	s := NewSHMServer(Func(func(op, arg uint64) uint64 { return arg }), Options{MaxThreads: 2, Telemetry: tel})
	if s.Telemetry() != tel {
		t.Fatal("Telemetry() is not the core the server was built with")
	}
	MustHandle(s).Apply(0, 7)
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
	s := NewSHMServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 2})
	defer s.Close()
	h := MustHandle(s)
	for i := 0; i < 100; i++ {
		if got := h.Apply(7, 9); got != 0 {
			t.Fatalf("Apply = %d, want 0", got)
		}
	}
}

// TestSlotLayout: a slot and the client that writes it are each whole
// cache lines. The client is not reachable from TestHandlesLineAligned:
// the Pipe holds it inside a value transport.
func TestSlotLayout(t *testing.T) {
	if !pad.Padded(unsafe.Sizeof(shmSlot{})) {
		t.Fatalf("shmSlot is %d bytes, not a whole number of cache lines", unsafe.Sizeof(shmSlot{}))
	}
	if !pad.Padded(unsafe.Sizeof(shmClient{})) {
		t.Fatalf("shmClient is %d bytes, not a whole number of cache lines", unsafe.Sizeof(shmClient{}))
	}
}
