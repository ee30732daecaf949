package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	// exclusion (one server loop per executor) must make it safe, and the
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
	o, err := buildOptions()
	if err != nil {
		t.Fatalf("buildOptions(): %v", err)
	}
	if o.MaxThreads != 128 || o.MaxOps != 200 || o.QueueCap != 39 {
		t.Fatalf("bad defaults: %+v", o)
	}
}

func TestOptionsRejectNonPositive(t *testing.T) {
	bad := map[string]Option{
		"WithMaxThreads(0)":     WithMaxThreads(0),
		"WithMaxThreads(-1)":    WithMaxThreads(-1),
		"WithMaxOps(0)":         WithMaxOps(0),
		"WithMaxOps(-7)":        WithMaxOps(-7),
		"WithQueueCap(0)":       WithQueueCap(0),
		"WithStallTimeout(-5s)": WithStallTimeout(-5 * time.Second),
	}
	for name, opt := range bad {
		if _, err := buildOptions(opt); !errors.Is(err, ErrBadOption) {
			t.Errorf("buildOptions(%s) = %v, want ErrBadOption", name, err)
		}
	}
	// The message names the value as it was written, and the rule.
	if _, err := buildOptions(WithStallTimeout(-5 * time.Second)); err == nil || !strings.Contains(err.Error(), "WithStallTimeout(-5s): value must not be negative") {
		t.Errorf("buildOptions(WithStallTimeout(-5s)) = %v, want it to name -5s and the rule", err)
	}
	if _, err := buildOptions(WithStallTimeout(0)); err != nil {
		t.Errorf("buildOptions(WithStallTimeout(0)) = %v, want 0 accepted (it disables the watchdog)", err)
	}
	o, err := buildOptions(WithMaxThreads(3), WithQueueCap(5))
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	if o.MaxThreads != 3 || o.QueueCap != 5 {
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

// linePlaced reports whether the address assertions of the LineAligned
// tests hold on this target, and logs why they are skipped where they do
// not. A whole-line struct starts on a line only while the allocator puts
// nothing in front of it: Go 1.22 and later put an 8-byte malloc header in
// front of a pointerful heap object larger than 512 B on 64-bit targets
// and larger than 128 B on 386 (pointer size × pointer bits). Every placed
// type here is pointerful and at most 512 B, so placement is promised on
// 64-bit targets only; the sizes are asserted on every target.
func linePlaced(t *testing.T) bool {
	t.Helper()
	ptr := unsafe.Sizeof(uintptr(0))
	if ptr == 8 {
		return true
	}
	t.Logf("placement not asserted: line placement is promised on 64-bit targets only, since on this %d-bit target Go puts an 8-byte malloc header in front of a pointerful object larger than %d B", 8*ptr, ptr*8*ptr)
	return false
}

// lineSharers are the registered executors that need not be a whole
// number of cache lines, each with why: none holds a field that some
// thread writes on every operation, so a neighbouring allocation on its
// last line is invalidated rarely, if ever.
var lineSharers = map[string]string{
	"hybrid":    "after construction Hybrid writes only mode, at a transition, and the controller's lock and window, a line of pad behind mode, once per hybridTickEvery operations of a handle",
	"mcs-lock":  "LockExecutor's lock queue's tail is its own allocation and the counts are the handles'; the struct is the shell and the object, read-mostly",
	"mpserver":  "MPServer's request ring, reply rings and run cells are allocations of their own; the struct holds their pointers and the server part, read-mostly",
	"shmserver": "SHMServer's request slots are an allocation of their own; the struct holds their slice and the server part, read-mostly",
}

// TestExecutorsLineAligned: every registered executor is either a whole
// number of cache lines, or lineSharers names why it need not be. A
// whole-line executor starts on a cache-line boundary in every
// instance, so the words its threads write each operation fall on the
// same lines in every executor of every run; a struct in a
// non-whole-line size class is placed differently from one allocation
// to the next. The sizes hold on every target, the placement on 64-bit
// targets (linePlaced).
func TestExecutorsLineAligned(t *testing.T) {
	placed := linePlaced(t)
	for _, algo := range Algorithms() {
		checkExecutorLineAligned(t, algo, placed)
	}
}

// TestHybCombLineAligned pins the check for HybComb, whose lastReg,
// rounds and combined are written every round: at 240 bytes successive
// executors cycled through four placements.
func TestHybCombLineAligned(t *testing.T) {
	if _, shares := lineSharers["hybcomb"]; shares {
		t.Fatalf("hybcomb is named in lineSharers")
	}
	checkExecutorLineAligned(t, "hybcomb", linePlaced(t))
}

// TestCCSynchLineAligned pins the check for CCSynch, whose field order
// relies on it (tail on the line of the latch and MaxOps).
func TestCCSynchLineAligned(t *testing.T) {
	if _, shares := lineSharers["ccsynch"]; shares {
		t.Fatalf("ccsynch is named in lineSharers")
	}
	checkExecutorLineAligned(t, "ccsynch", linePlaced(t))
}

// checkExecutorLineAligned checks that algo's executor is whole cache
// lines, or named in lineSharers, and, where it is whole lines and
// placed holds, that 16 fresh executors each start on a line.
func checkExecutorLineAligned(t *testing.T, algo string, placed bool) {
	t.Helper()
	ex := MustNewObject(algo, Func(func(op, arg uint64) uint64 { return 0 }))
	defer ex.Close()
	typ := reflect.TypeOf(ex).Elem()
	why, shares := lineSharers[algo]
	switch {
	case !pad.Padded(typ.Size()) && !shares:
		t.Errorf("%s: %s is %d bytes, not a whole number of cache lines, and lineSharers names no reason", algo, typ, typ.Size())
	case !pad.Padded(typ.Size()):
		t.Logf("%s: %s is %d bytes: %s", algo, typ, typ.Size(), why)
	case placed:
		for i := 0; i < 16; i++ {
			e := MustNewObject(algo, Func(func(op, arg uint64) uint64 { return 0 }))
			if off := reflect.ValueOf(e).Pointer() % pad.CacheLine; off != 0 {
				t.Errorf("%s: executor %d starts %d bytes into a cache line", algo, i, off)
			}
			e.Close()
		}
	}
}

// TestShellLayout: the Shell every executor embeds is whole cache lines,
// so the fields an executor declares after it start on a line of their
// own.
func TestShellLayout(t *testing.T) {
	if !pad.Padded(unsafe.Sizeof(Shell{})) {
		t.Fatalf("Shell is %d bytes, not a whole number of cache lines", unsafe.Sizeof(Shell{}))
	}
}

// TestHandlesLineAligned: every construction's handle — its Pipe and,
// where the transport is a pointer, the transport — is whole cache lines
// and starts on one in every handle, so one thread's per-operation
// writes never share a line with a neighbouring handle's, and the
// handle's hot words fall on the same lines from one run to the next (a
// struct in a non-whole-line size class is placed differently from one
// allocation to the next). The sizes hold on every target, the
// placement on 64-bit targets (linePlaced).
func TestHandlesLineAligned(t *testing.T) {
	if !pad.Padded(unsafe.Sizeof(Pipe{})) {
		t.Fatalf("Pipe is %d bytes, not a whole number of cache lines", unsafe.Sizeof(Pipe{}))
	}
	placed := linePlaced(t)
	for _, algo := range Algorithms() {
		ex := MustNewObject(algo, Func(func(op, arg uint64) uint64 { return 0 }), WithMaxThreads(16))
		for i := 0; i < 16; i++ {
			p, ok := MustHandle(ex).(*Pipe)
			if !ok {
				t.Fatalf("%s: handle %d is not a *Pipe", algo, i)
			}
			if off := uintptr(unsafe.Pointer(p)) % pad.CacheLine; placed && off != 0 {
				t.Fatalf("%s: handle %d's Pipe starts %d bytes into a cache line", algo, i, off)
			}
			tr := reflect.ValueOf(p.spec.Transport)
			if tr.Kind() != reflect.Pointer {
				continue
			}
			if size := tr.Elem().Type().Size(); !pad.Padded(size) {
				t.Fatalf("%s: %s is %d bytes, not a whole number of cache lines", algo, tr.Elem().Type(), size)
			}
			if off := tr.Pointer() % pad.CacheLine; placed && off != 0 {
				t.Fatalf("%s: handle %d's %s starts %d bytes into a cache line", algo, i, tr.Elem().Type(), off)
			}
		}
		ex.Close()
	}
}

// TestMPServerHandleLineAligned: the two rings of an mpserver handle's
// run cell each start on a cache line in every handle, so the results
// the server writes into the cell never share a line with the transport
// state the client writes, or with another handle's cell.
func TestMPServerHandleLineAligned(t *testing.T) {
	var hot mpTransportHot
	if pad.SameLine(unsafe.Offsetof(hot.cell)+unsafe.Sizeof(hot.cell)-1, unsafe.Offsetof(hot.tail)) {
		t.Fatalf("mpTransportHot: the run cell (ends at %d) shares a cache line with tail (at %d)",
			unsafe.Offsetof(hot.cell)+unsafe.Sizeof(hot.cell)-1, unsafe.Offsetof(hot.tail))
	}
	for _, queueCap := range []int{2, 39} {
		s := NewMPServer(Func(func(op, arg uint64) uint64 { return 0 }), Options{MaxThreads: 16, QueueCap: queueCap})
		for i := 0; i < 16; i++ {
			tr := MustHandle(s).(*Pipe).spec.Transport.(*mpTransport)
			for what, p := range map[string]unsafe.Pointer{
				"request ring": unsafe.Pointer(&tr.cell.reqs[0]),
				"result ring":  unsafe.Pointer(&tr.cell.rets[0]),
			} {
				if off := uintptr(p) % pad.CacheLine; off != 0 {
					t.Fatalf("QueueCap %d, handle %d: the %s starts %d bytes into a cache line", queueCap, i, what, off)
				}
			}
		}
		s.Close()
	}
}

// TestHandleCreatedMidApply covers the per-handle rings: NewHandle
// allocates a handle's response ring (and HybComb inbox) while other
// handles are mid-Apply, and the server or the other threads' combiners
// then find that ring through a plain slice slot. The slot's write must
// be ordered before every such read by the newcomer's first request or
// its node's registration CAS — which the race detector checks here for
// mpserver and hybcomb. Small MaxOps keeps HybComb's combiner role
// rotating, so newcomers both register with others and are registered
// with. A promoted hybrid has no per-handle rings, but its newcomers
// list their counter cells with the shell while the residents' ticks
// walk that list, and small MaxOps hands its CC-Synch combiner duty
// around as well.
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
		{"hybrid/ccsynch", func(obj Object) Executor {
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
