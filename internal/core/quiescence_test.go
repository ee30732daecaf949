package core_test

import (
	"sync"
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestCountsReadAfterWaitGroup pins the read rule of StatsSource,
// RetryStats and PipelineStats on every construction: the counts are
// plain words that each handle's goroutine writes, and a reader that
// has synchronized with every writer — here by WaitGroup.Wait, with the
// handles still open — reads them race-free (the race detector checks
// that) and stable. The writers mix every call that counts: blocking
// Apply, a Submit window, Posts that stall on a full window, and
// ApplyBatch. CI repeats it under -race with two processors; a hang
// dies on handletest's liveness bound.
func TestCountsReadAfterWaitGroup(t *testing.T) {
	const goroutines, per, qcap = 4, 400, 4
	type read struct{ rounds, combined, retries, stalls, depth uint64 }
	for _, algo := range core.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			handletest.Guard(t, func() {
				var n uint64
				ex := core.MustNewObject(algo, core.Func(func(_, arg uint64) uint64 { n += arg; return n }),
					core.WithMaxThreads(goroutines), core.WithQueueCap(qcap))
				var wg sync.WaitGroup
				for range goroutines {
					h := core.MustHandle(ex)
					wg.Add(1)
					go func() {
						defer wg.Done()
						reqs, rets := []core.Req{{Arg: 1}, {Arg: 1}, {Arg: 1}}, make([]uint64, 3)
						for i := range per {
							switch i % 4 {
							case 0:
								h.Apply(0, 1)
							case 1:
								if tk, err := h.Submit(0, 1); err == nil {
									h.Wait(tk)
								}
							case 2:
								for range qcap + 1 {
									h.Post(0, 1)
								}
							case 3:
								h.ApplyBatch(reqs, rets)
							}
						}
						h.Flush()
					}()
				}
				wg.Wait()
				counts := func() (r read) {
					if s, ok := ex.(core.StatsSource); ok {
						r.rounds, r.combined = s.Stats()
					}
					if s, ok := ex.(core.RetryStats); ok {
						r.retries = s.Retries()
					}
					if s, ok := ex.(core.PipelineStats); ok {
						r.stalls, r.depth = s.Pipeline()
					}
					return r
				}
				first := counts()
				ops := uint64(goroutines * per / 4 * (1 + 1 + qcap + 1 + 3))
				if n != ops {
					t.Fatalf("the object counted %d operations, want %d", n, ops)
				}
				if _, ok := ex.(core.StatsSource); ok && (first.rounds == 0 || first.rounds+first.combined > ops) {
					t.Errorf("rounds %d + combined %d over %d operations, want at least one round and at most one per operation",
						first.rounds, first.combined, ops)
				}
				if first.retries > first.rounds {
					t.Errorf("%d retries over %d rounds: a retry is one queued acquisition, and an acquisition is a round", first.retries, first.rounds)
				}
				if _, ok := ex.(core.PipelineStats); ok && (first.stalls == 0 || first.depth > qcap) {
					t.Errorf("Pipeline() = (%d stalls, depth %d), want stalls from the Posts past a window of %d and no deeper window",
						first.stalls, first.depth, qcap)
				}
				if again := counts(); again != first {
					t.Errorf("two reads after the WaitGroup disagree: %+v then %+v", first, again)
				}
				if err := ex.Close(); err != nil {
					t.Fatal(err)
				}
				if closed := counts(); closed != first {
					t.Errorf("the read after Close disagrees: %+v then %+v", first, closed)
				}
			})
		})
	}
}
