// Property tests for the sharded objects, run under -race in CI: the
// aggregate of a sharded counter must conserve every increment, a
// concurrent Aggregate must stay within the linearizable-sum envelope,
// and the fan-out Close must stay idempotent even when a shard's
// executor was already closed out from under the router.
package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"hybsync/internal/core"
)

// propAlgos are the constructions the properties are checked over: the
// paper's two message-passing constructions (both registered by
// internal/core itself).
var propAlgos = []string{"mpserver", "hybcomb"}

// TestAggregateConservation: after G goroutines complete K randomly
// keyed increments each, the quiescent value, a handle's Aggregate sum
// and the occupancy profile must all account for exactly G*K
// operations — no shard lost or double-counted an increment.
func TestAggregateConservation(t *testing.T) {
	const goroutines, per, nshards = 4, 5_000, 8
	for _, algo := range propAlgos {
		t.Run(algo, func(t *testing.T) {
			c, err := NewCounter(nshards, nil, coreFactory(algo))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				h, err := c.NewHandle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := seed
					for i := 0; i < per; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						if _, err := h.Inc(rng); err != nil {
							panic(err)
						}
					}
				}(uint64(g + 1))
			}
			wg.Wait()
			const want = uint64(goroutines * per)
			occ := c.Occupancy()
			var occTotal uint64
			for _, n := range occ {
				occTotal += n
			}
			if occTotal != want {
				t.Errorf("occupancy accounts for %d ops, want %d (%v)", occTotal, want, occ)
			}
			if v := c.Value(); v != want {
				t.Errorf("quiescent Value = %d, want %d", v, want)
			}
			h, err := c.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			if sum, err := h.Sum(); err != nil || sum != want {
				t.Errorf("Aggregate sum = %d (err %v), want %d", sum, err, want)
			}
		})
	}
}

// TestAggregateLinearizableSumEnvelope checks the contract Aggregate
// documents: while writers increment other shards concurrently, every
// observed sum lies between the number of increments completed before
// the aggregate began and the number started by the time it returned,
// and one observer's successive sums never decrease (per-shard reads
// are linearizable and per-shard state is monotone).
func TestAggregateLinearizableSumEnvelope(t *testing.T) {
	const writers, per, nshards = 3, 4_000, 4
	for _, algo := range propAlgos {
		t.Run(algo, func(t *testing.T) {
			c, err := NewCounter(nshards, nil, coreFactory(algo))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var started, completed atomic.Uint64
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				h, err := c.NewHandle()
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					rng := seed
					for i := 0; i < per; i++ {
						rng ^= rng << 13
						rng ^= rng >> 7
						rng ^= rng << 17
						started.Add(1)
						if _, err := h.Inc(rng); err != nil {
							panic(err)
						}
						completed.Add(1)
					}
				}(uint64(w + 1))
			}
			reader, err := c.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			var prev uint64
			for completed.Load() < writers*per {
				lo := completed.Load()
				sum, err := reader.Sum()
				if err != nil {
					t.Fatal(err)
				}
				hi := started.Load()
				if sum < lo || sum > hi {
					t.Fatalf("aggregate %d outside envelope [%d, %d]", sum, lo, hi)
				}
				if sum < prev {
					t.Fatalf("aggregate went backwards: %d after %d", sum, prev)
				}
				prev = sum
			}
			wg.Wait()
			if sum, err := reader.Sum(); err != nil || sum != writers*per {
				t.Fatalf("final sum = %d (err %v), want %d", sum, err, writers*per)
			}
		})
	}
}

// TestCloseFanOutIdempotent: the router's Close must fan out to every
// shard, succeed even when one shard's executor was already closed
// directly, stay idempotent across repeated calls, and seal NewHandle
// with ErrClosed — and a surviving handle's lazy open on an untouched
// shard must surface ErrClosed too.
func TestCloseFanOutIdempotent(t *testing.T) {
	for _, algo := range propAlgos {
		t.Run(algo, func(t *testing.T) {
			var execs []core.Executor
			r, err := NewObjectRouter(3, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }), nil,
				func(_ int, obj core.Object) (core.Executor, error) {
					ex, err := core.NewObject(algo, obj)
					if err == nil {
						execs = append(execs, ex)
					}
					return ex, err
				})
			if err != nil {
				t.Fatal(err)
			}
			h, err := r.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.ApplyShard(0, 0, 0); err != nil {
				t.Fatal(err)
			}
			// One shard's executor dies out from under the router.
			if err := execs[1].Close(); err != nil {
				t.Fatalf("direct shard close: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("fan-out Close with a pre-closed shard: %v", err)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if _, err := r.NewHandle(); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("NewHandle after Close = %v, want ErrClosed", err)
			}
			if _, err := h.ApplyShard(2, 0, 0); !errors.Is(err, core.ErrClosed) {
				t.Fatalf("lazy open on closed shard = %v, want ErrClosed", err)
			}
		})
	}
}
