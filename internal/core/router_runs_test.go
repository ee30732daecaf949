package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/shard"
)

// runLog is a keyed object that records the length of every
// DispatchShardBatch run per shard. Its state is a put-returns-previous
// map per shard (key in the argument's high half, value in the low
// half, 0 for "no previous value"), so results show input order and
// batch order at once.
type runLog struct {
	runs [][]int
	vals []map[uint32]uint32
}

func newRunLog(nshards int) *runLog {
	l := &runLog{runs: make([][]int, nshards), vals: make([]map[uint32]uint32, nshards)}
	for s := range l.vals {
		l.vals[s] = map[uint32]uint32{}
	}
	return l
}

func (l *runLog) DispatchShardBatch(s int, reqs []core.Req, results []uint64) {
	l.runs[s] = append(l.runs[s], len(reqs))
	for i, r := range reqs {
		key := uint32(r.Arg >> 32)
		results[i] = uint64(l.vals[s][key])
		l.vals[s][key] = uint32(r.Arg)
	}
}

// TestMultiApplyOneRunPerShard: a single client's MultiApply reaches
// every touched shard as one SubmitBatch, and the constructions that
// execute a handle's batch in one piece — mcs-lock (the hybrid in lock
// mode among them), a combiner serving its own run or its own chain
// segment — hand it to the object as exactly one DispatchShardBatch. A
// server drains whatever part of the group has been published when it
// wakes, so there a group is one run at best and one per key at worst.
// Results come back in input order, and a key repeated in the batch
// sees the value its earlier occurrence stored.
func TestMultiApplyOneRunPerShard(t *testing.T) {
	const nshards, n, distinct = 4, 16, 12
	keys, args := make([]uint64, n), make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i % distinct)
		args[i] = keys[i]<<32 | uint64(i+1)
	}
	check := func(t *testing.T, oneRun bool, f shard.ExecFactory) {
		log := newRunLog(nshards)
		r, err := shard.NewObjectRouter(nshards, log, nil, f)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		h, err := r.NewHandle()
		if err != nil {
			t.Fatal(err)
		}
		out, err := h.MultiApply(0, keys, args)
		if err != nil {
			t.Fatalf("MultiApply: %v", err)
		}
		for i, v := range out {
			want := uint64(0)
			if i >= distinct {
				want = uint64(i - distinct + 1) // what the key's first occurrence stored
			}
			if v != want {
				t.Errorf("out[%d] = %d, want %d", i, v, want)
			}
		}
		group := make([]int, nshards)
		for _, k := range keys {
			group[r.ShardFor(k)]++
		}
		for s, runs := range log.runs {
			total := 0
			for _, l := range runs {
				total += l
			}
			if total != group[s] {
				t.Errorf("shard %d executed %d operations in runs %v, want its group of %d", s, total, runs, group[s])
			}
			if group[s] > 0 && oneRun && len(runs) != 1 {
				t.Errorf("shard %d saw its group of %d as runs %v, want one run", s, group[s], runs)
			}
		}
	}
	for _, algo := range core.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			check(t, algo != "mpserver" && algo != "shmserver", func(_ int, obj core.Object) (core.Executor, error) {
				return core.NewObject(algo, obj)
			})
		})
	}
	// The hybrid above never promotes (one client is never contended);
	// here each mode is forced.
	for _, promote := range []bool{false, true} {
		name := "hybrid-forced-lock"
		if promote {
			name = "hybrid-forced-delegation"
		}
		t.Run(name, func(t *testing.T) {
			check(t, true, func(_ int, obj core.Object) (core.Executor, error) {
				h := core.NewHybrid(obj, core.Options{})
				core.FreezeHybrid(h)
				core.ForceHybridMode(h, promote)
				return h, nil
			})
		})
	}
}
