package spin

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMutualExclusion hammers a plain counter under one MCSLock, a
// handle per goroutine; any missing exclusion loses increments (and
// trips the race detector, because the counter is intentionally
// non-atomic).
func TestMutualExclusion(t *testing.T) {
	const goroutines, per = 8, 5000
	t.Run("mcs", func(t *testing.T) {
		l := &MCSLock{}
		var counter uint64
		var inCS atomic.Int32
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := l.NewMCSHandle()
				for i := 0; i < per; i++ {
					h.Lock()
					if inCS.Add(1) != 1 {
						t.Error("two goroutines inside the critical section")
					}
					counter++
					inCS.Add(-1)
					h.Unlock()
				}
			}()
		}
		wg.Wait()
		if counter != goroutines*per {
			t.Fatalf("counter = %d, want %d", counter, goroutines*per)
		}
	})
}

// TestMCSUncontended covers the fast path (tail CAS to nil on unlock).
func TestMCSUncontended(t *testing.T) {
	l := &MCSLock{}
	h := l.NewMCSHandle()
	for i := 0; i < 100; i++ {
		if r := h.LockCounted(); r != 0 {
			t.Fatalf("uncontended LockCounted = %d, want 0", r)
		}
		h.Unlock()
	}
	if l.tail.Load() != nil {
		t.Fatal("tail not nil after uncontended use")
	}
}

// TestMCSCountsQueuedAcquisition: an acquisition that finds a
// predecessor counts exactly 1 — the unit of the lock executor's
// Retries and so of the hybrid's promotion signal.
func TestMCSCountsQueuedAcquisition(t *testing.T) {
	l := &MCSLock{}
	holder, waiter := l.NewMCSHandle(), l.NewMCSHandle()
	holder.Lock()
	got := make(chan uint64)
	go func() {
		r := waiter.LockCounted()
		waiter.Unlock()
		got <- r
	}()
	for l.tail.Load() == holder.node { // until the waiter has swapped itself in
		runtime.Gosched()
	}
	holder.Unlock()
	if r := <-got; r != 1 {
		t.Fatalf("queued LockCounted = %d, want 1", r)
	}
	if l.tail.Load() != nil {
		t.Fatal("tail not nil after the queue drained")
	}
}
