package shard

import (
	"errors"
	"slices"
	"testing"

	"hybsync/internal/core"
	_ "hybsync/internal/shmsync" // registers ccsynch and shmserver: every algorithm is under test
)

// faultObj counts the operations each shard executed and panics on the
// argument poisonArg — a fault in the middle of whatever run carries it.
type faultObj struct{ done []uint64 }

const poisonArg = ^uint64(0)

func (o *faultObj) DispatchShardBatch(s int, reqs []core.Req, results []uint64) {
	for i, r := range reqs {
		if r.Arg == poisonArg {
			panic("shard test: injected fault")
		}
		results[i] = o.done[s]
		o.done[s]++
	}
}

// TestMultiApplyRefusedShard: when the third of four touched shards
// cannot open a handle (its MaxThreads is taken), MultiApply returns
// the executor's sentinel with the two groups it had already submitted
// executed and waited out, the fourth never submitted, occupancy
// counting exactly the submitted keys — and the handle works on.
func TestMultiApplyRefusedShard(t *testing.T) {
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7, 8} // Modulo: shard = key % 4
	for _, algo := range core.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			obj := &faultObj{done: make([]uint64, 4)}
			r, err := NewObjectRouter(4, obj, Modulo, coreFactory(algo, core.WithMaxThreads(1)))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			squatter, _ := r.NewHandle()
			if _, err := squatter.Apply(2, 0, 0); err != nil { // takes shard 2's only handle
				t.Fatal(err)
			}
			h, _ := r.NewHandle()
			if _, err := h.MultiApply(0, keys, nil); !errors.Is(err, core.ErrTooManyHandles) {
				t.Fatalf("MultiApply across an exhausted shard = %v, want ErrTooManyHandles", err)
			}
			// Submitted groups ran to completion before the error returned
			// (on a deferring construction an unwaited run would not have
			// executed at all).
			if want := []uint64{3, 2, 1, 0}; !slices.Equal(obj.done, want) {
				t.Errorf("shards executed %v operations, want %v", obj.done, want)
			}
			if occ, want := r.Occupancy(), []uint64{3, 2, 1, 0}; !slices.Equal(occ, want) {
				t.Errorf("Occupancy = %v, want %v: submitted groups count per key, refused ones not at all", occ, want)
			}
			out, err := h.MultiApply(0, []uint64{0, 1, 3, 4, 7}, nil)
			if want := []uint64{3, 2, 0, 4, 1}; err != nil || !slices.Equal(out, want) {
				t.Errorf("MultiApply on the healthy shards afterwards = %v, %v, want %v", out, err, want)
			}
		})
	}
}

// TestMultiApplyPoisonedShard: a shard poisoned by the batch itself
// completes its group with zeros and the call reports the fault after
// waiting every group out; from then on the shard refuses its group, the
// groups submitted ahead of it are still waited out, the ones behind it
// are never submitted, and single-key calls on healthy shards go on.
func TestMultiApplyPoisonedShard(t *testing.T) {
	keys := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, algo := range core.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			obj := &faultObj{done: make([]uint64, 4)}
			r, err := NewObjectRouter(4, obj, Modulo, coreFactory(algo))
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			h, _ := r.NewHandle()
			args := make([]uint64, len(keys))
			args[5] = poisonArg // shard 1's second operation
			if _, err := h.MultiApply(0, keys, args); !errors.Is(err, core.ErrPoisoned) {
				t.Fatalf("MultiApply through a panicking shard = %v, want ErrPoisoned", err)
			}
			if obj.done[0] != 2 || obj.done[1] > 1 || obj.done[2] != 2 || obj.done[3] != 2 {
				t.Errorf("shards executed %v operations, want [2 ≤1 2 2]", obj.done)
			}
			if occ, want := r.Occupancy(), []uint64{2, 2, 2, 2}; !slices.Equal(occ, want) {
				t.Errorf("Occupancy = %v, want %v: every group was submitted", occ, want)
			}

			if _, err := h.MultiApply(0, keys, nil); !errors.Is(err, core.ErrPoisoned) {
				t.Fatalf("MultiApply onto the poisoned shard = %v, want ErrPoisoned", err)
			}
			if obj.done[0] != 4 || obj.done[2] != 2 || obj.done[3] != 2 {
				t.Errorf("shards executed %v operations, want shard 0's group only (4, _, 2, 2)", obj.done)
			}
			if occ, want := r.Occupancy(), []uint64{4, 2, 2, 2}; !slices.Equal(occ, want) {
				t.Errorf("Occupancy = %v, want %v: only shard 0's group was submitted", occ, want)
			}
			if v, err := h.Apply(3, 0, 0); v != 2 || err != nil {
				t.Errorf("Apply on a healthy shard afterwards = %d, %v, want 2, nil", v, err)
			}
		})
	}
}

// TestMultiApplyAllocatesOnlyTheResult: the grouping scratch, the
// requests and the per-shard tickets live on the handle, so a call
// costs one allocation — the slice it returns.
func TestMultiApplyAllocatesOnlyTheResult(t *testing.T) {
	m, err := NewMap(4, 1<<10, nil, coreFactory("mcs-lock"))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	h, err := m.NewHandle()
	if err != nil {
		t.Fatal(err)
	}
	keys, vals := make([]uint32, 16), make([]uint32, 16)
	wide := make([]uint64, 16)
	for i := range keys {
		keys[i], vals[i], wide[i] = uint32(i*7), uint32(i), uint64(i*7)
	}
	for name, call := range map[string]func(){
		"GetAll":     func() { h.GetAll(keys) },
		"MultiPut":   func() { h.MultiPut(keys, vals) },
		"MultiApply": func() { h.h.MultiApply(mapOpLen, wide, nil) },
	} {
		call() // sizes the scratch, opens the shard handles
		if got := testing.AllocsPerRun(100, call); got != 1 {
			t.Errorf("%s(16 keys) allocates %v times per call, want 1", name, got)
		}
	}
}
