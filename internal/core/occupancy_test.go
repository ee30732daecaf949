package core_test

import (
	"errors"
	"runtime"
	"testing"

	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/shard"
)

// TestRegistryReleasesOccupancy checks that no executor leaks into
// backoff's occupancy estimate: the estimate is process-wide, and a
// count left behind turns the patient waits on or off for every server
// built afterwards. Every registered construction is built, given
// handles and closed — normally, after Poison, with a handle refused
// for MaxThreads, and closed twice — and a 4-shard map over mpserver,
// which is what object.NewMap builds, is closed the same way. Only the
// server constructions count while open: their pooled server loops,
// and each handle.
func TestRegistryReleasesOccupancy(t *testing.T) {
	want := func(when string, servers, clients int) {
		t.Helper()
		if s, c := backoff.Occupancy(); s != servers || c != clients {
			t.Errorf("%s: estimate reads (%d, %d), want (%d, %d)", when, s, c, servers, clients)
		}
	}
	want("before any executor", 0, 0)
	serving := map[string]bool{"mpserver": true, "shmserver": true}
	obj := core.Func(func(op, arg uint64) uint64 {
		if op == 1 {
			panic("occupancy test fault")
		}
		return arg
	})
	for _, name := range core.Algorithms() {
		for _, c := range []struct {
			name   string
			fill   func(t *testing.T, ex core.Executor) (handles int)
			closes int
		}{
			{"normal", func(t *testing.T, ex core.Executor) int {
				for range 2 {
					core.MustHandle(ex).Apply(0, 7)
				}
				return 2
			}, 1},
			{"poisoned", func(t *testing.T, ex core.Executor) int {
				h := core.MustHandle(ex)
				h.Apply(0, 7)
				ex.(core.Poisonable).Poison("occupancy test")
				if _, err := ex.NewHandle(); err == nil {
					t.Fatal("NewHandle after Poison succeeded")
				}
				return 1
			}, 1},
			{"too-many", func(t *testing.T, ex core.Executor) int {
				for range 2 {
					core.MustHandle(ex)
				}
				if _, err := ex.NewHandle(); !errors.Is(err, core.ErrTooManyHandles) {
					t.Fatalf("third NewHandle = %v, want ErrTooManyHandles", err)
				}
				return 2
			}, 1},
			{"closed-twice", func(t *testing.T, ex core.Executor) int {
				core.MustHandle(ex).Apply(0, 7)
				return 1
			}, 2},
		} {
			t.Run(name+"/"+c.name, func(t *testing.T) {
				ex := core.MustNewObject(name, obj, core.WithMaxThreads(2))
				handles := c.fill(t, ex)
				if serving[name] {
					want("open", 1, handles)
				} else {
					want("open", 0, 0)
				}
				for range c.closes {
					ex.Close()
				}
				want("closed", 0, 0)
			})
		}
	}

	t.Run("map-4-shards-mpserver", func(t *testing.T) {
		m, err := shard.NewMap(4, 64, nil, func(_ int, obj core.Object) (core.Executor, error) {
			return core.NewObject("mpserver", obj)
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range uint32(3) {
			h, err := m.NewHandle()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Put(k, k); err != nil {
				t.Fatal(err)
			}
			// Len asks every shard, so the handle registers with all four.
			if _, err := h.Len(); err != nil {
				t.Fatal(err)
			}
		}
		// The four shards share the server pool's loops: one per shard
		// only while GOMAXPROCS leaves a processor beside each.
		want("open", min(4, max(1, runtime.GOMAXPROCS(0)-1)), 12)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		want("closed", 0, 0)
	})
}
