package core

import (
	"sync"
	"testing"
)

// TestLockExecutor adapts a lock into the Executor interface.
func TestLockExecutor(t *testing.T) {
	var state uint64
	ex := newLockExecutor("mcs-lock", Func(func(op, arg uint64) uint64 {
		v := state
		state = v + arg
		return v
	}), Options{})
	var _ Executor = ex

	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := MustHandle(ex)
			for i := 0; i < per; i++ {
				h.Apply(0, 1)
			}
		}()
	}
	wg.Wait()
	if state != goroutines*per {
		t.Fatalf("state = %d, want %d", state, goroutines*per)
	}
	if rounds, combined := ex.Stats(); rounds != goroutines*per || combined != 0 {
		t.Fatalf("Stats = (%d, %d), want (%d, 0): every acquisition is a round of its own", rounds, combined, goroutines*per)
	}
}
