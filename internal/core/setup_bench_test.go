package core_test

import (
	"sync"
	"testing"
	"time"

	"hybsync/internal/core"
)

// BenchmarkSetup is the set-up layer: one executor and two handles of
// every registered construction, as the end-to-end benchmark's setup_s
// times them. ns/op, B/op and allocs/op count the construction only;
// Close runs with the timer stopped. hybrid-warmed adds 0.2 s of work on
// both handles (two goroutines, Apply and an 8-request ApplyBatch) to
// every iteration, so its B/op also counts what the hybrid allocates on
// first use — a CC-Synch combiner's lazily grown scratch — and shows
// whether that cost only moved out of set-up.
func BenchmarkSetup(b *testing.B) {
	obj := core.Func(func(op, arg uint64) uint64 { return op })
	for _, algo := range core.Algorithms() {
		b.Run(algo, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				ex := core.MustNewObject(algo, obj)
				core.MustHandle(ex)
				core.MustHandle(ex)
				b.StopTimer()
				if err := ex.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
	b.Run("hybrid-warmed", func(b *testing.B) {
		const warmup = 200 * time.Millisecond
		b.ReportAllocs()
		for range b.N {
			ex := core.MustNewObject("hybrid", obj)
			hs := [2]core.Handle{core.MustHandle(ex), core.MustHandle(ex)}
			end := time.Now().Add(warmup)
			var wg sync.WaitGroup
			for _, h := range hs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reqs, rets := make([]core.Req, 8), make([]uint64, 8)
					for time.Now().Before(end) {
						for range 64 {
							h.Apply(1, 0)
						}
						h.ApplyBatch(reqs, rets)
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			if err := ex.Close(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}
