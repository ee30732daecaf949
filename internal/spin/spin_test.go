package spin

import (
	"sync"
	"sync/atomic"
	"testing"
)

// lockFactories enumerates every lock, each as a per-goroutine factory
// over one shared lock instance.
func lockFactories() map[string]func() func() Lock {
	return map[string]func() func() Lock{
		"tas":    func() func() Lock { l := &TASLock{}; return func() Lock { return l } },
		"ttas":   func() func() Lock { l := &TTASLock{}; return func() Lock { return l } },
		"ticket": func() func() Lock { l := &TicketLock{}; return func() Lock { return l } },
		"mcs":    func() func() Lock { l := &MCSLock{}; return func() Lock { return l.NewMCSHandle() } },
		"clh":    func() func() Lock { l := NewCLHLock(); return func() Lock { return l.NewCLHHandle() } },
	}
}

// TestMutualExclusion hammers a plain counter under each lock; any
// missing exclusion loses increments (and trips the race detector,
// because the counter is intentionally non-atomic).
func TestMutualExclusion(t *testing.T) {
	const goroutines, per = 8, 5000
	for name, mkf := range lockFactories() {
		t.Run(name, func(t *testing.T) {
			factory := mkf()
			var counter uint64
			var inCS atomic.Int32
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					l := factory()
					for i := 0; i < per; i++ {
						l.Lock()
						if inCS.Add(1) != 1 {
							t.Error("two goroutines inside the critical section")
						}
						counter++
						inCS.Add(-1)
						l.Unlock()
					}
				}()
			}
			wg.Wait()
			if counter != goroutines*per {
				t.Fatalf("counter = %d, want %d", counter, goroutines*per)
			}
		})
	}
}

// TestTicketLockFIFO verifies ticket order is granted in FIFO order when
// acquired sequentially.
func TestTicketLockFIFO(t *testing.T) {
	l := &TicketLock{}
	for i := 0; i < 100; i++ {
		l.Lock()
		l.Unlock()
	}
	if l.next.Load() != 100 || l.owner.Load() != 100 {
		t.Fatalf("ticket state: next=%d owner=%d", l.next.Load(), l.owner.Load())
	}
}

// TestMCSUncontended covers the fast path (tail CAS to nil on unlock).
func TestMCSUncontended(t *testing.T) {
	l := &MCSLock{}
	h := l.NewMCSHandle()
	for i := 0; i < 100; i++ {
		h.Lock()
		h.Unlock()
	}
	if l.tail.Load() != nil {
		t.Fatal("tail not nil after uncontended use")
	}
}

// TestCLHNodeRecycling covers the predecessor-node exchange.
func TestCLHNodeRecycling(t *testing.T) {
	l := NewCLHLock()
	h := l.NewCLHHandle()
	for i := 0; i < 100; i++ {
		h.Lock()
		h.Unlock()
	}
}
