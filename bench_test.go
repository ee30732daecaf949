// Benchmarks, one per table/figure of the paper's evaluation (§5).
//
// The BenchmarkSimFig* benchmarks run the tilesim reproduction and
// report the figure's metric (Mops/s, cycles/op, stall cycles/op,
// combining rate) via b.ReportMetric — these are the numbers compared
// against the paper in DESIGN.md. The BenchmarkNative* benchmarks
// exercise the native Go layer on real goroutines (ns/op there is the
// per-operation latency on the host).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkSimFig3a -benchtime=1x
package hybsync_test

import (
	"fmt"
	"sync"
	"testing"

	"hybsync"
	"hybsync/harness"
	"hybsync/object"
	"hybsync/sim"
)

// simHorizon is the simulated-cycle budget per benchmark iteration.
const simHorizon = 60_000

// runSim executes one simulated workload and returns the result.
func runSim(b *sim.Builder, threads int, seed uint64,
	opFor func(int, uint64) (uint64, uint64), prof sim.Profile) sim.Result {
	return sim.RunWorkload(prof, b, sim.WorkloadCfg{
		Threads:      threads,
		Horizon:      simHorizon,
		MaxLocalWork: 50,
		Seed:         seed,
	}, opFor)
}

// counterSimBuilders returns fresh builders for the four approaches.
func counterSimBuilders(maxOps int) map[string]func() *sim.Builder {
	return map[string]func() *sim.Builder{
		"mp-server":  func() *sim.Builder { return sim.NewMPServerBuilder(sim.CounterFactory) },
		"HybComb":    func() *sim.Builder { return sim.NewHybCombBuilder(sim.CounterFactory, maxOps) },
		"shm-server": func() *sim.Builder { return sim.NewSHMServerBuilder(sim.CounterFactory) },
		"CC-Synch":   func() *sim.Builder { return sim.NewCCSynchBuilder(sim.CounterFactory, maxOps) },
	}
}

var simOrder = []string{"mp-server", "HybComb", "shm-server", "CC-Synch"}

// BenchmarkSimFig3aCounterThroughput reproduces Figure 3a at full
// concurrency (35 application threads); Mops/s is the figure's y-axis.
func BenchmarkSimFig3aCounterThroughput(b *testing.B) {
	for _, name := range simOrder {
		mk := counterSimBuilders(200)[name]
		b.Run(name, func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				res := runSim(mk(), 35, uint64(i+1), sim.CounterOps, sim.ProfileTileGx())
				mops = res.Mops()
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkSimFig3bCounterLatency reproduces Figure 3b (cycles/op).
func BenchmarkSimFig3bCounterLatency(b *testing.B) {
	for _, name := range simOrder {
		mk := counterSimBuilders(200)[name]
		b.Run(name, func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				res := runSim(mk(), 35, uint64(i+1), sim.CounterOps, sim.ProfileTileGx())
				lat = res.AvgLatency()
			}
			b.ReportMetric(lat, "cycles/op")
		})
	}
}

// BenchmarkSimFig3cMaxOps reproduces Figure 3c: HybComb throughput as a
// function of MAX_OPS at 35 threads.
func BenchmarkSimFig3cMaxOps(b *testing.B) {
	for _, maxOps := range []int{10, 200, 1000, 5000} {
		b.Run(fmt.Sprintf("HybComb/maxops=%d", maxOps), func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				mk := sim.NewHybCombBuilder(sim.CounterFactory, maxOps)
				res := runSim(mk, 35, uint64(i+1), sim.CounterOps, sim.ProfileTileGx())
				mops = res.Mops()
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkSimFig4aServiceStalls reproduces Figure 4a: stalled and total
// cycles per operation at the servicing thread (fixed combiner).
func BenchmarkSimFig4aServiceStalls(b *testing.B) {
	const inf = 1 << 30 // never reached within a run; fits int on 32-bit targets
	mks := map[string]func() *sim.Builder{
		"mp-server":  counterSimBuilders(200)["mp-server"],
		"HybComb":    counterSimBuilders(inf)["HybComb"],
		"shm-server": counterSimBuilders(200)["shm-server"],
		"CC-Synch":   counterSimBuilders(inf)["CC-Synch"],
	}
	for _, name := range simOrder {
		b.Run(name, func(b *testing.B) {
			var stall, total float64
			for i := 0; i < b.N; i++ {
				res := runSim(mks[name](), 35, uint64(i+1), sim.CounterOps, sim.ProfileTileGx())
				svc := res.Service
				var busiest *sim.Proc
				if len(svc) > 0 {
					busiest = svc[0]
				} else {
					for _, p := range res.Clients {
						if busiest == nil || p.BusyCycles() > busiest.BusyCycles() {
							busiest = p
						}
					}
				}
				stall = float64(busiest.StallCycles) / float64(res.Ops)
				total = float64(busiest.BusyCycles()) / float64(res.Ops)
			}
			b.ReportMetric(stall, "stall-cycles/op")
			b.ReportMetric(total, "total-cycles/op")
		})
	}
}

// BenchmarkSimFig4bCombiningRate reproduces Figure 4b at 35 threads.
func BenchmarkSimFig4bCombiningRate(b *testing.B) {
	for _, name := range []string{"HybComb", "CC-Synch"} {
		mk := counterSimBuilders(200)[name]
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				res := runSim(mk(), 35, uint64(i+1), sim.CounterOps, sim.ProfileTileGx())
				rate = res.CombiningRate()
			}
			b.ReportMetric(rate, "reqs/round")
		})
	}
}

// BenchmarkSimFig4cCSLength reproduces Figure 4c: cycles per CS as the
// CS body grows.
func BenchmarkSimFig4cCSLength(b *testing.B) {
	for _, iters := range []uint64{0, 4, 15} {
		for _, name := range []string{"mp-server", "shm-server"} {
			b.Run(fmt.Sprintf("%s/iters=%d", name, iters), func(b *testing.B) {
				var cpo float64
				for i := 0; i < b.N; i++ {
					var mk *sim.Builder
					if name == "mp-server" {
						mk = sim.NewMPServerBuilder(sim.ArrayCounterFactory(16))
					} else {
						mk = sim.NewSHMServerBuilder(sim.ArrayCounterFactory(16))
					}
					res := runSim(mk, 35, uint64(i+1), sim.ArrayOps(iters), sim.ProfileTileGx())
					cpo = float64(res.Cycles) / float64(res.Ops)
				}
				b.ReportMetric(cpo, "cycles/CS")
			})
		}
	}
}

// BenchmarkSimFig5aQueues reproduces Figure 5a at 35 clients.
func BenchmarkSimFig5aQueues(b *testing.B) {
	mks := []struct {
		name string
		mk   func() *sim.Builder
	}{
		{"mp-server-1", func() *sim.Builder { return sim.NewMPServerBuilder(sim.QueueFactory) }},
		{"HybComb-1", func() *sim.Builder { return sim.NewHybCombBuilder(sim.QueueFactory, 200) }},
		{"shm-server-1", func() *sim.Builder { return sim.NewSHMServerBuilder(sim.QueueFactory) }},
		{"CC-Synch-1", func() *sim.Builder { return sim.NewCCSynchBuilder(sim.QueueFactory, 200) }},
		{"LCRQ", func() *sim.Builder { return sim.NewLCRQBuilder(1024) }},
		{"mp-server-2", sim.NewTwoLockQueueBuilder},
	}
	for _, e := range mks {
		b.Run(e.name, func(b *testing.B) {
			threads := 35
			if e.name == "mp-server-2" {
				threads = 34 // two server cores
			}
			var mops float64
			for i := 0; i < b.N; i++ {
				res := runSim(e.mk(), threads, uint64(i+1), sim.QueueOps, sim.ProfileTileGx())
				mops = res.Mops()
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkSimFig5bStacks reproduces Figure 5b at 35 clients.
func BenchmarkSimFig5bStacks(b *testing.B) {
	mks := []struct {
		name string
		mk   func() *sim.Builder
	}{
		{"mp-server", func() *sim.Builder { return sim.NewMPServerBuilder(sim.StackFactory) }},
		{"HybComb", func() *sim.Builder { return sim.NewHybCombBuilder(sim.StackFactory, 200) }},
		{"shm-server", func() *sim.Builder { return sim.NewSHMServerBuilder(sim.StackFactory) }},
		{"CC-Synch", func() *sim.Builder { return sim.NewCCSynchBuilder(sim.StackFactory, 200) }},
		{"Treiber", sim.NewTreiberBuilder},
	}
	for _, e := range mks {
		b.Run(e.name, func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				res := runSim(e.mk(), 35, uint64(i+1), sim.StackOps, sim.ProfileTileGx())
				mops = res.Mops()
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// BenchmarkSimX86Profile reproduces the §5.5 discussion: the
// shared-memory approaches on the x86-like profile.
func BenchmarkSimX86Profile(b *testing.B) {
	prof := sim.ProfileX86Like()
	for _, name := range []string{"shm-server", "CC-Synch"} {
		mk := counterSimBuilders(200)[name]
		b.Run(name, func(b *testing.B) {
			var mops float64
			for i := 0; i < b.N; i++ {
				res := runSim(mk(), prof.NumCores()-1, uint64(i+1), sim.CounterOps, prof)
				mops = res.Mops()
			}
			b.ReportMetric(mops, "Mops/s")
		})
	}
}

// --- Native-layer benchmarks -------------------------------------------

// nativeAlgos enumerates the native constructions for benching, by
// their registry names.
var nativeAlgos = []string{"mpserver", "hybcomb", "shmserver", "ccsynch", "mcs-lock"}

// nativeOpts sizes every construction for RunParallel's goroutine count.
func nativeOpts() []hybsync.Option { return []hybsync.Option{hybsync.WithMaxThreads(256)} }

// BenchmarkNativeCounter is the native analogue of Figure 3a: contended
// counter increments across goroutines (ns/op = per-op latency).
func BenchmarkNativeCounter(b *testing.B) {
	for _, algo := range nativeAlgos {
		b.Run(algo, func(b *testing.B) {
			c, err := object.NewCounter(algo, nativeOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var mu sync.Mutex // protects NewHandle() distribution
			b.RunParallel(func(pb *testing.PB) {
				mu.Lock()
				h, err := c.NewHandle()
				mu.Unlock()
				if err != nil {
					panic(err)
				}
				for pb.Next() {
					h.Inc()
				}
			})
		})
	}
}

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

// BenchmarkNativeShardedCounter drives Zipf-skewed keyed increments
// through the shard router at 1 vs 4 shards — hybsweep's sharded cells
// as a `go test -bench` target, kept here so the CI bench smoke catches
// a routing regression that panics or deadlocks.
func BenchmarkNativeShardedCounter(b *testing.B) {
	zipf, err := harness.NewZipf(1<<16, 0.99, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []string{"mpserver", "hybcomb"} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", algo, shards), func(b *testing.B) {
				c, err := object.NewShardedCounter(algo, shards, nativeOpts()...)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				var mu sync.Mutex
				var nextSeed uint64
				b.RunParallel(func(pb *testing.PB) {
					mu.Lock()
					h, err := c.NewHandle()
					nextSeed++
					z := zipf.Reseed(nextSeed)
					mu.Unlock()
					if err != nil {
						panic(err)
					}
					for pb.Next() {
						if _, err := h.Inc(z.Next()); err != nil {
							panic(err)
						}
					}
				})
			})
		}
	}
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
