// Tests for the public shard facade: registry-name construction, the
// WithShards option, mixed-algorithm routers, and the root package's
// sentinel lifecycle surfacing through the router.
package shard_test

import (
	"errors"
	"sync"
	"testing"

	"hybsync"
	"hybsync/shard"
)

func TestNewRoutesAcrossShards(t *testing.T) {
	const nshards = 4
	var parts [nshards]uint64
	r, err := shard.NewObject("mpserver", shard.KeyedFunc(func(s int, op, arg uint64) uint64 {
		parts[s] += arg
		return parts[s]
	}), hybsync.WithShards(nshards))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != nshards {
		t.Fatalf("Shards() = %d, want %d", r.Shards(), nshards)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		h, err := r.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				if _, err := h.Apply(seed*7919+i, 0, 1); err != nil {
					panic(err)
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	var total uint64
	for _, v := range parts {
		total += v
	}
	if total != 4000 {
		t.Fatalf("shards hold %d increments in total, want 4000", total)
	}
	h, _ := r.NewHandle()
	sum, err := h.Aggregate(1, 0) // op 1: read (arg 0 adds nothing)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 4000 {
		t.Fatalf("Aggregate = %d, want 4000", sum)
	}
}

func TestNewMixedOneShardPerAlgorithm(t *testing.T) {
	algos := []string{"mpserver", "hybcomb", "ccsynch"}
	var parts [3]uint64
	r, err := shard.NewMixed(algos, shard.KeyedFunc(func(s int, op, arg uint64) uint64 {
		parts[s]++
		return parts[s]
	}), hybsync.WithMaxThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Shards() != len(algos) {
		t.Fatalf("Shards() = %d, want %d", r.Shards(), len(algos))
	}
	h, err := r.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Broadcast(0, 0); err != nil {
		t.Fatal(err)
	}
	for s, v := range parts {
		if v != 1 {
			t.Errorf("shard %d (%s) executed %d ops, want 1", s, algos[s], v)
		}
	}
	if _, err := shard.NewMixed(nil, shard.KeyedFunc(func(int, uint64, uint64) uint64 { return 0 })); err == nil {
		t.Error("NewMixed(no algorithms) accepted")
	}
}

func TestFacadeSentinels(t *testing.T) {
	d := func(s int, op, arg uint64) uint64 { return 0 }
	if _, err := shard.NewObject("no-such-algo", shard.KeyedFunc(d), hybsync.WithShards(2)); !errors.Is(err, hybsync.ErrUnknownAlgorithm) {
		t.Errorf("unknown algorithm = %v, want ErrUnknownAlgorithm", err)
	}
	if _, err := shard.NewObject("mpserver", shard.KeyedFunc(d), hybsync.WithShards(0)); !errors.Is(err, hybsync.ErrBadOption) {
		t.Errorf("WithShards(0) = %v, want ErrBadOption", err)
	}
	r, err := shard.NewObject("mpserver", shard.KeyedFunc(d), hybsync.WithShards(2), hybsync.WithMaxThreads(1))
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := r.NewHandle()
	h2, _ := r.NewHandle()
	if _, err := h1.ApplyShard(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.ApplyShard(0, 0, 0); !errors.Is(err, hybsync.ErrTooManyHandles) {
		t.Errorf("exhausted shard = %v, want ErrTooManyHandles", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.NewHandle(); !errors.Is(err, hybsync.ErrClosed) {
		t.Errorf("NewHandle after Close = %v, want ErrClosed", err)
	}
}

func TestPartitionedHotKeys(t *testing.T) {
	hits := make([]uint64, 4)
	p := shard.HotKeyIsolating(shard.Fibonacci, 42)
	r, err := shard.NewObjectPartitioned("hybcomb", shard.KeyedFunc(func(s int, op, arg uint64) uint64 {
		hits[s]++
		return 0
	}), p, hybsync.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, _ := r.NewHandle()
	for i := 0; i < 100; i++ {
		if _, err := h.Apply(42, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 100; key++ {
		if key == 42 {
			continue
		}
		if _, err := h.Apply(key, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if hits[0] != 100 {
		t.Errorf("hot key shard executed %d ops, want the 100 hot ops exactly (cold keys leaked in)", hits[0])
	}
}
