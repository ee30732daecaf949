package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

func TestMPServerBasic(t *testing.T) {
	var state uint64
	s := NewMPServer(Func(func(op, arg uint64) uint64 {
		old := state
		state += arg
		return old + op
	}), Options{MaxThreads: 8})
	defer s.Close()
	h := MustHandle(s)
	if got := h.Apply(5, 10); got != 5 {
		t.Fatalf("Apply = %d, want 5", got)
	}
	if got := h.Apply(0, 1); got != 10 {
		t.Fatalf("Apply = %d, want 10", got)
	}
	if state != 11 {
		t.Fatalf("state = %d, want 11", state)
	}
}

func TestMPServerConcurrentMutualExclusion(t *testing.T) {
	// The dispatch deliberately does a racy read-modify-write; mutual
	// exclusion (single server goroutine) must make it safe, and the
	// race detector must stay silent.
	var state uint64
	s := NewMPServer(Func(func(op, arg uint64) uint64 {
		v := state
		state = v + 1
		return v
	}), Options{MaxThreads: 32})
	defer s.Close()
	const goroutines, per = 16, 3000
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

func TestMPServerCloseIdempotent(t *testing.T) {
	s := NewMPServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{})
	s.Close()
	s.Close() // must not hang or panic
}

func TestMPServerTooManyHandles(t *testing.T) {
	s := NewMPServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 2})
	defer s.Close()
	for i := 0; i < 2; i++ {
		if _, err := s.NewHandle(); err != nil {
			t.Fatalf("NewHandle %d: %v", i, err)
		}
	}
	if _, err := s.NewHandle(); !errors.Is(err, ErrTooManyHandles) {
		t.Fatalf("third NewHandle = %v, want ErrTooManyHandles", err)
	}
}

func TestMustHandlePanics(t *testing.T) {
	s := NewMPServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 1})
	defer s.Close()
	MustHandle(s)
	defer func() {
		if recover() == nil {
			t.Fatal("MustHandle beyond MaxThreads did not panic")
		}
	}()
	MustHandle(s)
}

func TestNewHandleAfterClose(t *testing.T) {
	hc := NewHybComb(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 4})
	if err := hc.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := hc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := hc.NewHandle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
	}

	s := NewMPServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 4})
	s.Close()
	if _, err := s.NewHandle(); !errors.Is(err, ErrClosed) {
		t.Fatalf("mpserver NewHandle after Close = %v, want ErrClosed", err)
	}
}

// dupRuns numbers TestRegistryDuplicateAndUnknown's runs: the registry
// is process-wide, so each run (go test -count) registers its own name.
var dupRuns int

func TestRegistryDuplicateAndUnknown(t *testing.T) {
	f := func(obj Object, o Options) (Executor, error) { return NewHybComb(obj, o), nil }
	name := "core-test-dup"
	if dupRuns++; dupRuns > 1 {
		name = fmt.Sprintf("%s-%d", name, dupRuns)
	}
	if err := Register(name, f); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := Register(name, f); !errors.Is(err, ErrDuplicateAlgorithm) {
		t.Fatalf("duplicate Register = %v, want ErrDuplicateAlgorithm", err)
	}
	if _, err := NewObject("core-test-missing", Func(func(op, arg uint64) uint64 { return 0 })); !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("NewObject(unknown) = %v, want ErrUnknownAlgorithm", err)
	}
}

func TestHybCombSingleThread(t *testing.T) {
	var state uint64
	hc := NewHybComb(Func(func(op, arg uint64) uint64 {
		old := state
		state++
		return old
	}), Options{MaxThreads: 4})
	h := MustHandle(hc)
	for i := uint64(0); i < 100; i++ {
		if got := h.Apply(0, 0); got != i {
			t.Fatalf("Apply = %d, want %d", got, i)
		}
	}
	rounds, combined := hc.Stats()
	if rounds != 100 {
		t.Fatalf("rounds = %d, want 100 (single thread: one round per op)", rounds)
	}
	if combined != 0 {
		t.Fatalf("combined = %d, want 0", combined)
	}
}

func TestHybCombManyThreads(t *testing.T) {
	for _, opts := range []Options{
		{MaxThreads: 40},
		{MaxThreads: 40, MaxOps: 1},   // degenerate combining bound
		{MaxThreads: 40, MaxOps: 7},   // odd bound
		{MaxThreads: 40, QueueCap: 2}, // tiny queues: heavy back-pressure
	} {
		var state uint64
		hc := NewHybComb(Func(func(op, arg uint64) uint64 {
			v := state
			state = v + 1
			return v
		}), opts)
		const goroutines, per = 12, 2000
		var wg sync.WaitGroup
		results := make([]map[uint64]bool, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				h := MustHandle(hc)
				results[g] = make(map[uint64]bool, per)
				for i := 0; i < per; i++ {
					results[g][h.Apply(0, 0)] = true
				}
			}(g)
		}
		wg.Wait()
		if state != goroutines*per {
			t.Fatalf("opts %+v: state = %d, want %d", opts, state, goroutines*per)
		}
		union := make(map[uint64]bool)
		for _, m := range results {
			for v := range m {
				if union[v] {
					t.Fatalf("opts %+v: duplicate pre-value %d", opts, v)
				}
				union[v] = true
			}
		}
	}
}

func TestHybCombCombiningHappens(t *testing.T) {
	hc := NewHybComb(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 16})
	const goroutines, per = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := MustHandle(hc)
			for i := 0; i < per; i++ {
				h.Apply(0, 0)
			}
		}()
	}
	wg.Wait()
	rounds, combined := hc.Stats()
	if rounds+combined != goroutines*per {
		t.Fatalf("rounds %d + combined %d != total ops %d", rounds, combined, goroutines*per)
	}
	if combined == 0 {
		t.Log("warning: no combining observed (acceptable on a single-core runner)")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o, err := BuildOptions()
	if err != nil {
		t.Fatalf("BuildOptions(): %v", err)
	}
	if o.MaxThreads != 128 || o.MaxOps != 200 || o.QueueCap != 39 || o.Shards != 1 {
		t.Fatalf("bad defaults: %+v", o)
	}
}

func TestOptionsRejectNonPositive(t *testing.T) {
	bad := map[string]Option{
		"WithMaxThreads(0)":  WithMaxThreads(0),
		"WithMaxThreads(-1)": WithMaxThreads(-1),
		"WithMaxOps(0)":      WithMaxOps(0),
		"WithMaxOps(-7)":     WithMaxOps(-7),
		"WithQueueCap(0)":    WithQueueCap(0),
		"WithShards(0)":      WithShards(0),
		"WithShards(-2)":     WithShards(-2),
	}
	for name, opt := range bad {
		if _, err := BuildOptions(opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("BuildOptions(%s) = %v, want ErrBadOption", name, err)
		}
	}
	o, err := BuildOptions(WithMaxThreads(3), WithShards(5))
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if o.MaxThreads != 3 || o.Shards != 5 {
		t.Fatalf("valid options not applied: %+v", o)
	}
}

func TestHybCombNodeLayout(t *testing.T) {
	var n hcNode
	a, b, c := unsafe.Offsetof(n.threadID), unsafe.Offsetof(n.nOps), unsafe.Offsetof(n.done)
	if pad.SameLine(a, b) || pad.SameLine(b, c) || pad.SameLine(a, c) {
		t.Fatalf("hcNode hot fields share a cache line: offsets %d %d %d", a, b, c)
	}
	if !pad.Padded(unsafe.Sizeof(n)) {
		t.Fatalf("hcNode is %d bytes, not a whole number of cache lines", unsafe.Sizeof(n))
	}
}

// TestHybCombLineAligned pins what the padding of HybComb buys: every
// executor starts on a cache-line boundary, so the words written each
// round fall on the same lines in every executor of every run. At 240
// bytes successive executors cycled through four placements.
func TestHybCombLineAligned(t *testing.T) {
	if !pad.Padded(unsafe.Sizeof(HybComb{})) {
		t.Fatalf("HybComb is %d bytes, not a whole number of cache lines", unsafe.Sizeof(HybComb{}))
	}
	for i := 0; i < 16; i++ {
		h := NewHybComb(Func(func(op, arg uint64) uint64 { return 0 }), Options{})
		if off := uintptr(unsafe.Pointer(h)) % pad.CacheLine; off != 0 {
			t.Fatalf("executor %d starts %d bytes into a cache line", i, off)
		}
	}
}

// TestHandleCreatedMidApply covers the per-handle rings: NewHandle
// allocates a handle's response ring (and HybComb inbox) while other
// handles are mid-Apply, and the server or the other threads' combiners
// then find that ring through a plain slice slot. The slot's write must
// be ordered before every such read by the newcomer's first request or
// its node's registration CAS — which the race detector checks here for
// mpserver, hybcomb and a promoted hybrid. Small
// MaxOps keeps HybComb's combiner role rotating, so newcomers both
// register with others and are registered with.
func TestHandleCreatedMidApply(t *testing.T) {
	const residents, newcomers, per = 2, 12, 300
	for _, tc := range []struct {
		name string
		mk   func(Object) Executor
	}{
		{"mpserver", func(obj Object) Executor {
			return NewMPServer(obj, Options{MaxThreads: residents + newcomers})
		}},
		{"hybcomb", func(obj Object) Executor {
			return NewHybComb(obj, Options{MaxThreads: residents + newcomers, MaxOps: 4})
		}},
		{"hybrid/hybcomb", func(obj Object) Executor {
			h := newFrozenHybrid(obj, Options{MaxThreads: residents + newcomers, MaxOps: 4})
			forceMode(h, true)
			return h
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obj, total := counterObj()
			ex := tc.mk(obj)
			stop := make(chan struct{})
			var applied atomic.Uint64
			var resident, wave sync.WaitGroup
			for i := 0; i < residents; i++ {
				resident.Add(1)
				go func() {
					defer resident.Done()
					h := MustHandle(ex)
					for n := uint64(0); ; n++ {
						select {
						case <-stop:
							applied.Add(n)
							return
						default:
							h.Apply(0, 0)
						}
					}
				}()
			}
			for i := 0; i < newcomers; i++ {
				wave.Add(1)
				go func() {
					defer wave.Done()
					h := MustHandle(ex) // a fresh ring, while the others are mid-Apply
					for n := 0; n < per; n++ {
						h.Apply(0, 0)
					}
					tk, err := h.Submit(0, 0)
					if err != nil {
						t.Error(err)
						return
					}
					h.Wait(tk)
					applied.Add(per + 1)
				}()
				if i%4 == 3 {
					wave.Wait() // four newcomers at a time overlap each other too
				}
			}
			wave.Wait()
			close(stop)
			resident.Wait()
			if err := ex.Close(); err != nil {
				t.Fatal(err)
			}
			if got, want := total(), applied.Load(); got != want {
				t.Fatalf("counter = %d, want %d", got, want)
			}
		})
	}
}
