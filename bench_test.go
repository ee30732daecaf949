// Benchmarks over the two layers.
//
// BenchmarkSimFigure walks sim.Figures — the list cmd/tilebench prints —
// and reports each figure's full-concurrency row through b.ReportMetric,
// one metric per column under the column's label (Mops/s, cycles/op,
// stall cycles/op, combining rate): the numbers compared against the
// paper in DESIGN.md. The BenchmarkNative* benchmarks exercise what no
// other tool drives, the native queue, stack and map objects on real
// goroutines (ns/op is the per-operation latency on the host); the
// native counter, flat and sharded, is cmd/hybsweep's grid.
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkSimFigure/3a -benchtime=1x
// Fixed path:      go test -run '^$' -bench ApplyUncontended -cpu 1
package hybsync_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hybsync"
	"hybsync/harness"
	"hybsync/object"
	"hybsync/sim"
)

// BenchmarkSimFigure simulates, per iteration, the last row of every
// figure — the highest thread count, MAX_OPS or CS length — or every
// row where the rows are approaches (4a, tail). Each iteration is a
// fresh Lab, so nothing is remembered between them and ns/op is the
// cost of simulating the row.
func BenchmarkSimFigure(b *testing.B) {
	const horizon, maxOps = 60_000, 200
	for _, f := range sim.Figures(&sim.Lab{Horizon: horizon, Runs: 1}, maxOps) {
		rows := f.X[len(f.X)-1:]
		if f.XNames != nil {
			rows = f.X
		}
		for _, x := range rows {
			b.Run(f.Name+"/"+f.RowLabel(x), func(b *testing.B) {
				var vals []float64
				for i := 0; i < b.N; i++ {
					var err error
					if vals, err = f.Row(&sim.Lab{Horizon: horizon, Runs: 1}, x); err != nil {
						b.Fatal(err)
					}
				}
				for i, col := range f.Cols {
					b.ReportMetric(vals[i], strings.ReplaceAll(col.Label, " ", "_"))
				}
			})
		}
	}
}

// --- Native-layer benchmarks -------------------------------------------

// BenchmarkApplyUncontended is each built-in construction's fixed
// per-operation path alone: one handle, blocking Apply of v += arg, and
// nothing else running. It is the layer whose locked instructions
// TestFenceBudget counts; run it at -cpu 1 to compare parent and change.
func BenchmarkApplyUncontended(b *testing.B) {
	for _, algo := range requiredAlgos {
		b.Run(algo, func(b *testing.B) {
			var v uint64
			ex := hybsync.MustNewObject(algo, hybsync.Func(func(_, arg uint64) uint64 { v += arg; return v }))
			defer ex.Close()
			h := hybsync.MustHandle(ex)
			b.ResetTimer()
			for range b.N {
				h.Apply(0, 1)
			}
		})
	}
}

// nativeAlgos enumerates the native constructions for benching, by
// their registry names.
var nativeAlgos = []string{"mpserver", "hybcomb", "shmserver", "ccsynch", "mcs-lock"}

// nativeOpts sizes every construction for RunParallel's goroutine count.
func nativeOpts() []hybsync.Option { return []hybsync.Option{hybsync.WithMaxThreads(256)} }

// BenchmarkNativeQueue is the native analogue of Figure 5a.
func BenchmarkNativeQueue(b *testing.B) {
	for _, algo := range nativeAlgos {
		b.Run("MSQueue1/"+algo, func(b *testing.B) {
			q, err := object.NewMSQueue1(algo, nativeOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h, err := q.NewHandle()
				mu.Unlock()
				if err != nil {
					panic(err)
				}
				var i uint64
				for pb.Next() {
					if i%2 == 0 {
						h.Enqueue(i)
					} else {
						h.Dequeue()
					}
					i++
				}
			})
		})
	}
	b.Run("LCRQ", func(b *testing.B) {
		q := object.NewLCRQueue(1024)
		b.RunParallel(func(pb *testing.PB) {
			var i uint64
			for pb.Next() {
				if i%2 == 0 {
					q.Enqueue(i)
				} else {
					q.Dequeue()
				}
				i++
			}
		})
	})
}

// BenchmarkNativeStack is the native analogue of Figure 5b.
func BenchmarkNativeStack(b *testing.B) {
	for _, algo := range nativeAlgos {
		b.Run(algo, func(b *testing.B) {
			s, err := object.NewStack(algo, nativeOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var mu sync.Mutex
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h, err := s.NewHandle()
				mu.Unlock()
				if err != nil {
					panic(err)
				}
				var i uint64
				for pb.Next() {
					if i%2 == 0 {
						h.Push(i)
					} else {
						h.Pop()
					}
					i++
				}
			})
		})
	}
	b.Run("Treiber", func(b *testing.B) {
		s := object.NewTreiberStack()
		b.RunParallel(func(pb *testing.PB) {
			var i uint64
			for pb.Next() {
				if i%2 == 0 {
					s.Push(i)
				} else {
					s.Pop()
				}
				i++
			}
		})
	})
}

// BenchmarkNativeMap drives a 90/10 get/put mix over the sharded
// fixed-capacity map.
func BenchmarkNativeMap(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("mpserver/shards=%d", shards), func(b *testing.B) {
			m, err := object.NewMap("mpserver", shards, 1<<16, nativeOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			var mu sync.Mutex
			var nextSeed uint64
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h, err := m.NewHandle()
				nextSeed++
				rng := harness.NewXorShift(nextSeed)
				mu.Unlock()
				if err != nil {
					panic(err)
				}
				for pb.Next() {
					r := rng.Next()
					key := uint32(r % (1 << 14))
					var err error
					if r%10 == 0 {
						_, err = h.Put(key, uint32(r>>32))
					} else {
						_, err = h.Get(key)
					}
					if err != nil {
						panic(err)
					}
				}
			})
		})
	}
}
