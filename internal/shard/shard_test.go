package shard

import (
	"errors"
	"testing"

	"hybsync/internal/core"
)

// coreFactory builds every shard over the named core algorithm.
func coreFactory(algo string, opts ...core.Option) ExecFactory {
	return func(_ int, obj core.Object) (core.Executor, error) {
		return core.NewObject(algo, obj, opts...)
	}
}

func TestFibonacciCoversAllShards(t *testing.T) {
	const nshards = 8
	seen := make(map[int]int)
	for key := uint64(0); key < 4096; key++ {
		s := Fibonacci(key, nshards)
		if s < 0 || s >= nshards {
			t.Fatalf("Fibonacci(%d, %d) = %d out of range", key, nshards, s)
		}
		seen[s]++
	}
	for s := 0; s < nshards; s++ {
		if seen[s] == 0 {
			t.Errorf("shard %d never selected over a dense key range", s)
		}
	}
	// Dense keys must spread: no shard may take more than half the keys.
	for s, n := range seen {
		if n > 2048 {
			t.Errorf("shard %d took %d/4096 dense keys; hashing is not scrambling", s, n)
		}
	}
}

func TestHotKeyIsolation(t *testing.T) {
	const nshards = 8
	hot := []uint64{42, 77, 1000}
	p := HotKeyIsolating(Fibonacci, hot...)
	hotShards := make(map[int]uint64)
	for i, k := range hot {
		s := p(k, nshards)
		if s != i {
			t.Errorf("hot key %d pinned to shard %d, want %d", k, s, i)
		}
		if prev, dup := hotShards[s]; dup {
			t.Errorf("hot keys %d and %d share shard %d", prev, k, s)
		}
		hotShards[s] = k
	}
	// Cold keys must stay off the hot shards while shards remain.
	for key := uint64(0); key < 4096; key++ {
		isHot := false
		for _, k := range hot {
			if key == k {
				isHot = true
			}
		}
		if isHot {
			continue
		}
		if s := p(key, nshards); s < len(hot) {
			t.Fatalf("cold key %d routed to hot shard %d", key, s)
		}
	}
	// With as many hot keys as shards there is nothing to spare: cold
	// keys fall back to the base partitioner's full range.
	p2 := HotKeyIsolating(Modulo, 0, 1)
	if s := p2(5, 2); s != Modulo(5, 2) {
		t.Errorf("saturated isolation: cold key routed to %d, want base %d", s, Modulo(5, 2))
	}
	// Duplicate hot keys dedup to contiguous pins: with {42, 42, 77}
	// over 3 shards, 77 must get shard 1 and cold keys must stay off
	// shards 0 and 1.
	p3 := HotKeyIsolating(Fibonacci, 42, 42, 77)
	if s := p3(77, 3); s != 1 {
		t.Errorf("dup hot list: key 77 on shard %d, want 1", s)
	}
	for key := uint64(0); key < 256; key++ {
		if key == 42 || key == 77 {
			continue
		}
		if s := p3(key, 3); s != 2 {
			t.Fatalf("dup hot list: cold key %d on shard %d, want 2", key, s)
		}
	}
}

func TestRouterRoutesByKey(t *testing.T) {
	const nshards = 4
	touched := make([]uint64, nshards)
	r, err := NewObjectRouter(nshards, KeyedFunc(func(shard int, op, arg uint64) uint64 {
		touched[shard]++ // safe: each shard's dispatch is serialized and
		// shards are distinct slots (test reads only at quiescence)
		return uint64(shard)
	}), nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, err := r.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(0); key < 100; key++ {
		want := r.ShardFor(key)
		got, err := h.Apply(key, 0, 0)
		if err != nil {
			t.Fatalf("Apply(%d): %v", key, err)
		}
		if int(got) != want {
			t.Fatalf("key %d executed on shard %d, ShardFor says %d", key, got, want)
		}
	}
	occ := r.Occupancy()
	var total uint64
	for s, n := range occ {
		if n != touched[s] {
			t.Errorf("occupancy[%d] = %d, dispatch saw %d", s, n, touched[s])
		}
		total += n
	}
	if total != 100 {
		t.Fatalf("occupancy total %d, want 100", total)
	}
}

func TestLazyHandlesAndSentinelPropagation(t *testing.T) {
	// MaxThreads(1) per shard: two router handles coexist as long as
	// they touch disjoint shards — proof the per-shard executor handles
	// open lazily — and the first collision surfaces ErrTooManyHandles
	// exactly as the executor returned it.
	r, err := NewObjectRouter(2, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }),
		Modulo, coreFactory("mpserver", core.WithMaxThreads(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h1, _ := r.NewHandle()
	h2, _ := r.NewHandle()
	if _, err := h1.Apply(0, 0, 0); err != nil { // shard 0
		t.Fatalf("h1 on shard 0: %v", err)
	}
	if _, err := h2.Apply(1, 0, 0); err != nil { // shard 1
		t.Fatalf("h2 on shard 1: %v", err)
	}
	if _, err := h2.Apply(0, 0, 0); !errors.Is(err, core.ErrTooManyHandles) {
		t.Fatalf("second handle on exhausted shard 0 = %v, want ErrTooManyHandles", err)
	}
}

func TestBroadcastAndAggregate(t *testing.T) {
	vals := make([]uint64, 4)
	r, err := NewObjectRouter(4, KeyedFunc(func(shard int, op, arg uint64) uint64 {
		if op == 1 {
			vals[shard] += arg
		}
		return vals[shard]
	}), nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, _ := r.NewHandle()
	if _, err := h.Broadcast(1, 10); err != nil {
		t.Fatal(err)
	}
	out, err := h.Broadcast(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 4 {
		t.Fatalf("Broadcast returned %d results, want 4", len(out))
	}
	for s, v := range out {
		if v != 10 {
			t.Errorf("shard %d reads %d, want 10", s, v)
		}
	}
	sum, err := h.Aggregate(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 40 {
		t.Fatalf("Aggregate = %d, want 40", sum)
	}
}

func TestRouterStatsAggregated(t *testing.T) {
	r, err := NewObjectRouter(3, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }),
		nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, _ := r.NewHandle()
	for key := uint64(0); key < 300; key++ {
		if _, err := h.Apply(key, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	rounds, combined, ok := r.CombiningStats()
	if !ok {
		t.Fatal("hybcomb shards reported no combining stats")
	}
	if rounds+combined != 300 {
		t.Fatalf("rounds %d + combined %d != 300 ops", rounds, combined)
	}
	// A router over non-combining executors reports ok=false.
	r2, err := NewObjectRouter(2, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }),
		nil, coreFactory("mpserver"))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, _, ok := r2.CombiningStats(); ok {
		t.Fatal("mpserver shards claimed combining stats")
	}
}

func TestRouterRejectsBadConfig(t *testing.T) {
	d := func(shard int, op, arg uint64) uint64 { return 0 }
	if _, err := NewObjectRouter(0, KeyedFunc(d), nil, coreFactory("hybcomb")); !errors.Is(err, core.ErrBadOption) {
		t.Errorf("NewRouter(0 shards) = %v, want ErrBadOption", err)
	}
	if _, err := NewObjectRouter(-3, KeyedFunc(d), nil, coreFactory("hybcomb")); !errors.Is(err, core.ErrBadOption) {
		t.Errorf("NewRouter(-3 shards) = %v, want ErrBadOption", err)
	}
	if _, err := NewObjectRouter(2, nil, nil, coreFactory("hybcomb")); err == nil {
		t.Error("NewRouter(nil dispatch) accepted")
	}
	if _, err := NewObjectRouter(2, KeyedFunc(d), nil, nil); err == nil {
		t.Error("NewRouter(nil factory) accepted")
	}
}

func TestRouterFactoryFailureClosesBuiltShards(t *testing.T) {
	var built []core.Executor
	boom := errors.New("boom")
	_, err := NewObjectRouter(3, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }), nil,
		func(s int, obj core.Object) (core.Executor, error) {
			if s == 2 {
				return nil, boom
			}
			ex, err := core.NewObject("mpserver", obj)
			if err == nil {
				built = append(built, ex)
			}
			return ex, err
		})
	if !errors.Is(err, boom) {
		t.Fatalf("NewRouter = %v, want the factory's error", err)
	}
	if len(built) != 2 {
		t.Fatalf("built %d shards before failure, want 2", len(built))
	}
	for i, ex := range built {
		if _, err := ex.NewHandle(); !errors.Is(err, core.ErrClosed) {
			t.Errorf("earlier shard %d not closed after factory failure: %v", i, err)
		}
	}
}

func TestMapSequentialModel(t *testing.T) {
	m, err := NewMap(4, 1024, nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[uint32]uint32)
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 20_000; i++ {
		key := uint32(next() % 600) // < capacity so shards never fill
		val := uint32(next())
		switch next() % 10 {
		case 0, 1, 2, 3: // put
			got, err := h.Put(key, val)
			if err != nil {
				t.Fatal(err)
			}
			want := EmptyVal
			if old, ok := model[key]; ok {
				want = uint64(old)
			}
			if got != want {
				t.Fatalf("op %d: Put(%d) = %#x, model %#x", i, key, got, want)
			}
			model[key] = val
		case 4: // delete
			got, err := h.Delete(key)
			if err != nil {
				t.Fatal(err)
			}
			want := EmptyVal
			if old, ok := model[key]; ok {
				want = uint64(old)
			}
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %#x, model %#x", i, key, got, want)
			}
			delete(model, key)
		default: // get
			got, err := h.Get(key)
			if err != nil {
				t.Fatal(err)
			}
			want := EmptyVal
			if v, ok := model[key]; ok {
				want = uint64(v)
			}
			if got != want {
				t.Fatalf("op %d: Get(%d) = %#x, model %#x", i, key, got, want)
			}
		}
	}
	n, err := h.Len()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(model)) {
		t.Fatalf("Len = %d, model has %d", n, len(model))
	}
	if m.Len() != uint64(len(model)) {
		t.Fatalf("quiescent Len = %d, model has %d", m.Len(), len(model))
	}
}

func TestMapFixedCapacity(t *testing.T) {
	// One shard, capacity 8: the 9th distinct key must fail with
	// FullVal, and deleting one key must free a slot again.
	m, err := NewMap(1, 8, nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, _ := m.NewHandle()
	for k := uint32(0); k < 8; k++ {
		if got, _ := h.Put(k, k); got != EmptyVal {
			t.Fatalf("Put(%d) = %#x, want EmptyVal", k, got)
		}
	}
	if got, _ := h.Put(99, 1); got != FullVal {
		t.Fatalf("Put into full shard = %#x, want FullVal", got)
	}
	// Overwrites still work at capacity.
	if got, _ := h.Put(3, 33); got != 3 {
		t.Fatalf("overwrite at capacity = %#x, want old value 3", got)
	}
	if got, _ := h.Delete(5); got != 5 {
		t.Fatalf("Delete(5) = %#x", got)
	}
	if got, _ := h.Put(99, 1); got != EmptyVal {
		t.Fatalf("Put after delete = %#x, want EmptyVal (tombstone reused)", got)
	}
	if got, _ := h.Get(99); got != 1 {
		t.Fatalf("Get(99) = %#x, want 1", got)
	}
	if _, err := NewMap(1, 0, nil, coreFactory("hybcomb")); !errors.Is(err, core.ErrBadOption) {
		t.Fatalf("NewMap(capacity=0) = %v, want ErrBadOption", err)
	}
}
