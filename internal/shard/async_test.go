package shard

import (
	"sync"
	"testing"

	"hybsync/internal/core"
)

// seqFactory builds an mpserver per shard (the construction with a real
// submission pipeline).
func seqFactory(t *testing.T) ExecFactory {
	t.Helper()
	return func(_ int, obj core.Object) (core.Executor, error) {
		return core.NewObject("mpserver", obj, core.WithMaxThreads(16))
	}
}

// echoRouter builds a router whose dispatch tags each result with its
// shard and a per-shard sequence number, so a result identifies both
// where and in which order it executed.
func echoRouter(t *testing.T, nshards int) *Router {
	t.Helper()
	seqs := make([]uint64, nshards*64) // oversized; only [shard*64] used
	r, err := NewObjectRouter(nshards, KeyedFunc(func(shard int, op, arg uint64) uint64 {
		s := seqs[shard*64]
		seqs[shard*64]++
		return uint64(shard)<<32 | s<<16 | (arg & 0xFFFF)
	}), nil, seqFactory(t))
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	return r
}

// TestSubmitWaitRouted: tickets route to the right shard and redeem the
// right operation's result, in or out of submission order.
func TestSubmitWaitRouted(t *testing.T) {
	r := echoRouter(t, 4)
	defer r.Close()
	h, err := r.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	tickets := make([]Ticket, n)
	for i := 0; i < n; i++ {
		tk, err := h.Submit(uint64(i*7), 0, uint64(i))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if want := r.ShardFor(uint64(i * 7)); tk.Shard() != want {
			t.Fatalf("ticket %d routed to shard %d, want %d", i, tk.Shard(), want)
		}
		tickets[i] = tk
	}
	// Redeem back-to-front: still each ticket's own result.
	for i := n - 1; i >= 0; i-- {
		v := h.Wait(tickets[i])
		if got := v & 0xFFFF; got != uint64(i) {
			t.Fatalf("Wait(ticket %d) returned op %d's result", i, got)
		}
		if got := int(v >> 32); got != tickets[i].Shard() {
			t.Fatalf("ticket %d executed on shard %d, routed to %d", i, got, tickets[i].Shard())
		}
	}
}

// TestWaitForeignTicketPanics: a routed Wait on a ticket that is not
// outstanding fails with the contract's one panic, like every
// core.Handle — also when the ticket names a shard this handle never
// opened (the zero Ticket before any operation, another routing
// handle's ticket) or no shard at all, which used to die on a nil
// handle or a slice index.
func TestWaitForeignTicketPanics(t *testing.T) {
	r := echoRouter(t, 4)
	defer r.Close()
	a, _ := r.NewHandle()
	b, _ := r.NewHandle()
	theirs, err := b.SubmitShard(3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mine, err := a.SubmitShard(1, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, tk := range map[string]Ticket{
		"zero ticket, shard never opened":    {},
		"foreign ticket, shard never opened": theirs,
		"shard out of range":                 {shard: 4, t: mine.t},
		"negative shard":                     {shard: -1, t: mine.t},
	} {
		func() {
			defer func() {
				if got := recover(); got != core.TicketMisuse {
					t.Errorf("Wait(%s) panicked with %v, want %q", name, got, core.TicketMisuse)
				}
			}()
			a.Wait(tk)
		}()
	}
	if v := a.Wait(mine); v&0xFFFF != 2 {
		t.Fatalf("Wait(own ticket) after the misuses = %#x, want op 2's result", v)
	}
	b.Wait(theirs)
}

// TestMultiApplyOrderAndRouting: MultiApply returns results in input
// order, each from its key's shard, with per-shard FIFO execution.
func TestMultiApplyOrderAndRouting(t *testing.T) {
	const nshards, n = 4, 64
	r := echoRouter(t, nshards)
	defer r.Close()
	h, err := r.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, n)
	args := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i * 13)
		args[i] = uint64(i)
	}
	out, err := h.MultiApply(0, keys, args)
	if err != nil {
		t.Fatalf("MultiApply: %v", err)
	}
	if len(out) != n {
		t.Fatalf("len(out) = %d, want %d", len(out), n)
	}
	perShardSeq := map[int]int64{0: -1, 1: -1, 2: -1, 3: -1}
	for i, v := range out {
		if got := v & 0xFFFF; got != uint64(i) {
			t.Fatalf("out[%d] is op %d's result", i, got)
		}
		shard := int(v >> 32)
		if want := r.ShardFor(keys[i]); shard != want {
			t.Fatalf("op %d executed on shard %d, want %d", i, shard, want)
		}
		seq := int64(v >> 16 & 0xFFFF)
		if seq <= perShardSeq[shard] {
			t.Fatalf("op %d broke FIFO on shard %d: seq %d after %d", i, shard, seq, perShardSeq[shard])
		}
		perShardSeq[shard] = seq
	}
	// nil args: every operation gets argument 0.
	out, err = h.MultiApply(0, keys[:4], nil)
	if err != nil {
		t.Fatalf("MultiApply(nil args): %v", err)
	}
	for i, v := range out {
		if v&0xFFFF != 0 {
			t.Fatalf("nil-args out[%d] carries arg %d", i, v&0xFFFF)
		}
	}
	// Length mismatch is rejected.
	if _, err := h.MultiApply(0, keys, args[:3]); err == nil {
		t.Fatal("MultiApply with mismatched args did not fail")
	}
}

// TestPostFlushCountsOccupancy: posted operations reach their shards
// (observable via a counting dispatch after Flush) and occupancy
// reflects the submissions.
func TestPostFlushCountsOccupancy(t *testing.T) {
	const nshards = 4
	counts := make([]uint64, nshards*64)
	r, err := NewObjectRouter(nshards, KeyedFunc(func(shard int, op, arg uint64) uint64 {
		counts[shard*64]++
		return counts[shard*64]
	}), nil, seqFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, err := r.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		if err := h.Post(uint64(i), 0, 0); err != nil {
			t.Fatalf("Post %d: %v", i, err)
		}
	}
	h.Flush()
	var executed, routed uint64
	for s := 0; s < nshards; s++ {
		executed += counts[s*64]
	}
	for _, ops := range r.Occupancy() {
		routed += ops
	}
	if executed != n {
		t.Fatalf("executed = %d, want %d", executed, n)
	}
	if routed != n {
		t.Fatalf("occupancy total = %d, want %d", routed, n)
	}
}

// TestMultiApplyConcurrent: several goroutines issue overlapping
// MultiApply batches under the race detector; per-shard totals must be
// conserved.
func TestMultiApplyConcurrent(t *testing.T) {
	const nshards, goroutines, batches, batch = 4, 4, 20, 16
	counts := make([]uint64, nshards*64)
	r, err := NewObjectRouter(nshards, KeyedFunc(func(shard int, op, arg uint64) uint64 {
		counts[shard*64] += arg
		return counts[shard*64]
	}), nil, seqFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		h, err := r.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]uint64, batch)
			args := make([]uint64, batch)
			for i := range keys {
				keys[i] = uint64(g*batch + i)
				args[i] = 1
			}
			for b := 0; b < batches; b++ {
				if _, err := h.MultiApply(0, keys, args); err != nil {
					panic(err)
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for s := 0; s < nshards; s++ {
		total += counts[s*64]
	}
	if want := uint64(goroutines * batches * batch); total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestMapGetAll: the sharded map's pipelined multi-get agrees with
// per-key Get, in input order, including absent keys.
func TestMapGetAll(t *testing.T) {
	m, err := NewMap(4, 1024, nil, seqFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	for k := uint32(0); k < 100; k += 2 { // evens present, odds absent
		if _, err := h.Put(k, k*10); err != nil {
			t.Fatal(err)
		}
	}
	keys := make([]uint32, 100)
	for i := range keys {
		keys[i] = uint32(i)
	}
	got, err := h.GetAll(keys)
	if err != nil {
		t.Fatalf("GetAll: %v", err)
	}
	for i, k := range keys {
		want := EmptyVal
		if k%2 == 0 {
			want = uint64(k * 10)
		}
		if got[i] != want {
			t.Fatalf("GetAll[%d] (key %d) = %#x, want %#x", i, k, got[i], want)
		}
	}
}

// TestMapMultiPut: the batched multi-put returns previous values in
// input order (EmptyVal for new keys), stores every pair, and a
// same-batch duplicate key observes the value an earlier entry stored.
func TestMapMultiPut(t *testing.T) {
	m, err := NewMap(4, 1024, nil, seqFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint32, 64)
	vals := make([]uint32, 64)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = uint32(i * 3)
	}
	old, err := h.MultiPut(keys, vals)
	if err != nil {
		t.Fatalf("MultiPut: %v", err)
	}
	for i := range old {
		if old[i] != EmptyVal {
			t.Fatalf("MultiPut[%d] previous = %#x, want EmptyVal (fresh key)", i, old[i])
		}
	}
	// Overwrite with a duplicate inside the batch: index 1 and 2 both
	// write key 7; the second must observe the first's value.
	dupKeys := []uint32{5, 7, 7}
	dupVals := []uint32{50, 70, 71}
	old, err = h.MultiPut(dupKeys, dupVals)
	if err != nil {
		t.Fatalf("MultiPut dup: %v", err)
	}
	if old[0] != uint64(5*3) || old[1] != uint64(7*3) || old[2] != 70 {
		t.Fatalf("MultiPut dup previous = %v, want [15 21 70]", old)
	}
	for i, k := range keys {
		v, err := h.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(vals[i])
		switch k {
		case 5:
			want = 50
		case 7:
			want = 71
		}
		if v != want {
			t.Fatalf("Get(%d) = %d, want %d after MultiPut", k, v, want)
		}
	}
	if _, err := h.MultiPut([]uint32{1}, []uint32{1, 2}); err == nil {
		t.Fatal("MultiPut with mismatched lengths did not fail")
	}
}
