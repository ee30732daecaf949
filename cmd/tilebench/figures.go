package main

import (
	"fmt"
	"os"

	"hybsync/harness"
	"hybsync/sim"
)

// figConfig carries the sweep parameters shared by all figures.
type figConfig struct {
	Horizon uint64
	Runs    int
	MaxOps  int
}

// threadSweep is the x-axis of the thread-count figures. The TILE-Gx8036
// has 36 cores; with one core dedicated to a server, at most 35
// application threads fit (the paper's x-axis).
var threadSweep = []int{1, 2, 3, 5, 7, 10, 14, 17, 20, 24, 28, 31, 35}

// counterBuilders enumerates the four §5.3 approaches over a counter.
func counterBuilders(maxOps int) []*sim.Builder {
	return []*sim.Builder{
		sim.NewMPServerBuilder(sim.CounterFactory),
		sim.NewHybCombBuilder(sim.CounterFactory, maxOps),
		sim.NewSHMServerBuilder(sim.CounterFactory),
		sim.NewCCSynchBuilder(sim.CounterFactory, maxOps),
	}
}

// sweep runs b for every thread count and returns one averaged Result
// per point.
func sweep(cfg figConfig, mk func() *sim.Builder, threads []int,
	opFor func(int, uint64) (uint64, uint64), prof sim.Profile) []sim.Result {
	out := make([]sim.Result, len(threads))
	for i, th := range threads {
		out[i] = average(cfg, mk, th, opFor, prof)
	}
	return out
}

// average runs one data point cfg.Runs times with different seeds and
// averages the scalar statistics.
func average(cfg figConfig, mk func() *sim.Builder, threads int,
	opFor func(int, uint64) (uint64, uint64), prof sim.Profile) sim.Result {
	var acc sim.Result
	for r := 0; r < cfg.Runs; r++ {
		b := mk()
		res := sim.RunWorkload(prof, b, sim.WorkloadCfg{
			Threads:      threads,
			Horizon:      cfg.Horizon,
			MaxLocalWork: 50,
			Seed:         uint64(r + 1),
		}, opFor)
		acc.FreqGHz = res.FreqGHz
		acc.Cycles += res.Cycles
		acc.Ops += res.Ops
		acc.LatencySum += res.LatencySum
		acc.ServiceBusy += res.ServiceBusy
		acc.ServiceStall += res.ServiceStall
		acc.CASAttempts += res.CASAttempts
		acc.CASFailures += res.CASFailures
		acc.AtomicOps += res.AtomicOps
		acc.Rounds += res.Rounds
		acc.Combined += res.Combined
		if acc.PerThreadOps == nil {
			acc.PerThreadOps = make([]uint64, threads)
		}
		for i, n := range res.PerThreadOps {
			acc.PerThreadOps[i] += n
		}
	}
	return acc
}

// fig3a: counter throughput vs number of application threads.
func fig3a(cfg figConfig) {
	t := harness.NewTable("Figure 3a — concurrent counter throughput (Mops/sec)",
		append([]string{"threads"}, builderNames(counterBuilders(cfg.MaxOps))...)...)
	t.Note = fmt.Sprintf("MAX_OPS=%d, local work <=50 iters, horizon %d cycles x %d runs",
		cfg.MaxOps, cfg.Horizon, cfg.Runs)
	cols := make([][]sim.Result, 0, 4)
	for i := range counterBuilders(cfg.MaxOps) {
		i := i
		cols = append(cols, sweep(cfg, func() *sim.Builder { return counterBuilders(cfg.MaxOps)[i] },
			threadSweep, sim.CounterOps, sim.ProfileTileGx()))
	}
	for r, th := range threadSweep {
		t.AddRow(th, cols[0][r].Mops(), cols[1][r].Mops(), cols[2][r].Mops(), cols[3][r].Mops())
	}
	t.Render(os.Stdout)
}

// fig3b: counter latency vs number of application threads.
func fig3b(cfg figConfig) {
	t := harness.NewTable("Figure 3b — concurrent counter latency (cycles)",
		append([]string{"threads"}, builderNames(counterBuilders(cfg.MaxOps))...)...)
	cols := make([][]sim.Result, 0, 4)
	for i := range counterBuilders(cfg.MaxOps) {
		i := i
		cols = append(cols, sweep(cfg, func() *sim.Builder { return counterBuilders(cfg.MaxOps)[i] },
			threadSweep, sim.CounterOps, sim.ProfileTileGx()))
	}
	for r, th := range threadSweep {
		t.AddRow(th, cols[0][r].AvgLatency(), cols[1][r].AvgLatency(), cols[2][r].AvgLatency(), cols[3][r].AvgLatency())
	}
	t.Render(os.Stdout)
}

// fig3c: maximum counter throughput vs allowed combining rate (MAX_OPS).
func fig3c(cfg figConfig) {
	t := harness.NewTable("Figure 3c — impact of the allowed combining rate (35 threads, Mops/sec)",
		"MAX_OPS", "HybComb", "CC-Synch")
	for _, mo := range []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000} {
		mo := mo
		hy := average(cfg, func() *sim.Builder {
			return sim.NewHybCombBuilder(sim.CounterFactory, mo)
		}, 35, sim.CounterOps, sim.ProfileTileGx())
		cc := average(cfg, func() *sim.Builder {
			return sim.NewCCSynchBuilder(sim.CounterFactory, mo)
		}, 35, sim.CounterOps, sim.ProfileTileGx())
		t.AddRow(mo, hy.Mops(), cc.Mops())
	}
	t.Render(os.Stdout)
}

// fig4a: stalled vs total cycles per operation at the servicing thread
// under maximum load. As in the paper (footnote 4), the combining
// algorithms run with a fixed combiner (MAX_OPS=infinity) so a single
// core's counters capture the servicing work.
func fig4a(cfg figConfig) {
	const inf = 1 << 30 // never reached within a run; fits int on 32-bit targets
	t := harness.NewTable("Figure 4a — CPU stalls at the servicing thread (cycles per operation, 35 threads)",
		"approach", "stalled", "total")
	t.Note = "combiners fixed for the whole run (MAX_OPS=inf), as in the paper's footnote 4"

	type entry struct {
		name string
		mk   func() *sim.Builder
	}
	entries := []entry{
		{"mp-server", func() *sim.Builder { return sim.NewMPServerBuilder(sim.CounterFactory) }},
		{"HybComb", func() *sim.Builder { return sim.NewHybCombBuilder(sim.CounterFactory, inf) }},
		{"shm-server", func() *sim.Builder { return sim.NewSHMServerBuilder(sim.CounterFactory) }},
		{"CC-Synch", func() *sim.Builder { return sim.NewCCSynchBuilder(sim.CounterFactory, inf) }},
	}
	for _, en := range entries {
		var stall, busy, ops float64
		for r := 0; r < cfg.Runs; r++ {
			b := en.mk()
			res := sim.RunWorkload(sim.ProfileTileGx(), b, sim.WorkloadCfg{
				Threads: 35, Horizon: cfg.Horizon, MaxLocalWork: 50, Seed: uint64(r + 1),
			}, sim.CounterOps)
			svc := servicingProc(res)
			stall += float64(svc.StallCycles)
			busy += float64(svc.BusyCycles())
			ops += float64(res.Ops)
		}
		t.AddRow(en.name, stall/ops, busy/ops)
	}
	t.Render(os.Stdout)
}

// servicingProc returns the Proc that executed the critical sections: a
// dedicated server when there is one, otherwise the (fixed) combiner —
// identified as the busiest client.
func servicingProc(res sim.Result) *sim.Proc {
	if len(res.Service) > 0 {
		return res.Service[0]
	}
	var busiest *sim.Proc
	for _, p := range res.Clients {
		if busiest == nil || p.BusyCycles() > busiest.BusyCycles() {
			busiest = p
		}
	}
	return busiest
}

// fig4b: actual combining rate vs thread count.
func fig4b(cfg figConfig) {
	t := harness.NewTable("Figure 4b — actual combining rate (requests per combiner round)",
		"threads", "HybComb", "CC-Synch")
	t.Note = fmt.Sprintf("MAX_OPS=%d", cfg.MaxOps)
	hy := sweep(cfg, func() *sim.Builder { return sim.NewHybCombBuilder(sim.CounterFactory, cfg.MaxOps) },
		threadSweep, sim.CounterOps, sim.ProfileTileGx())
	cc := sweep(cfg, func() *sim.Builder { return sim.NewCCSynchBuilder(sim.CounterFactory, cfg.MaxOps) },
		threadSweep, sim.CounterOps, sim.ProfileTileGx())
	for r, th := range threadSweep {
		t.AddRow(th, hy[r].CombiningRate(), cc[r].CombiningRate())
	}
	t.Render(os.Stdout)
}

// fig4c: average cycles per CS execution as the CS body grows (array
// increments), with the no-synchronization ideal as reference.
func fig4c(cfg figConfig) {
	t := harness.NewTable("Figure 4c — cycles per CS execution vs CS length (35 threads)",
		"iters", "mp-server", "HybComb", "shm-server", "CC-Synch", "ideal")
	prof := sim.ProfileTileGx()
	for _, iters := range []uint64{0, 1, 2, 4, 6, 8, 10, 12, 15, 20, 30, 50} {
		row := []any{iters}
		mks := []func() *sim.Builder{
			func() *sim.Builder { return sim.NewMPServerBuilder(sim.ArrayCounterFactory(64)) },
			func() *sim.Builder { return sim.NewHybCombBuilder(sim.ArrayCounterFactory(64), cfg.MaxOps) },
			func() *sim.Builder { return sim.NewSHMServerBuilder(sim.ArrayCounterFactory(64)) },
			func() *sim.Builder { return sim.NewCCSynchBuilder(sim.ArrayCounterFactory(64), cfg.MaxOps) },
		}
		for _, mk := range mks {
			res := average(cfg, mk, 35, sim.ArrayOps(iters), prof)
			// Cycles per CS at saturation = inverse throughput.
			row = append(row, float64(res.Cycles)/float64(res.Ops))
		}
		// Ideal: the CS body alone on a warm cache (read+write per cell).
		row = append(row, float64(iters)*2*float64(prof.L1Hit))
		t.AddRow(row...)
	}
	t.Render(os.Stdout)
}

// fig5a: queue throughput under balanced load, six variants.
func fig5a(cfg figConfig) {
	mks := []func() *sim.Builder{
		func() *sim.Builder {
			b := sim.NewMPServerBuilder(sim.QueueFactory)
			b.Name = "mp-server-1"
			return b
		},
		func() *sim.Builder {
			b := sim.NewHybCombBuilder(sim.QueueFactory, cfg.MaxOps)
			b.Name = "HybComb-1"
			return b
		},
		func() *sim.Builder {
			b := sim.NewSHMServerBuilder(sim.QueueFactory)
			b.Name = "shm-server-1"
			return b
		},
		func() *sim.Builder {
			b := sim.NewCCSynchBuilder(sim.QueueFactory, cfg.MaxOps)
			b.Name = "CC-Synch-1"
			return b
		},
		func() *sim.Builder { return sim.NewLCRQBuilder(1024) },
		sim.NewTwoLockQueueBuilder,
	}
	t := harness.NewTable("Figure 5a — queue throughput under balanced load (Mops/sec)",
		"clients", "mp-server-1", "HybComb-1", "shm-server-1", "CC-Synch-1", "LCRQ", "mp-server-2")
	cols := make([][]sim.Result, len(mks))
	// mp-server-2 uses two server cores, so at most 34 clients fit.
	sweep2 := make([]int, len(threadSweep))
	copy(sweep2, threadSweep)
	sweep2[len(sweep2)-1] = 34
	for i, mk := range mks {
		ts := threadSweep
		if i == len(mks)-1 {
			ts = sweep2
		}
		cols[i] = sweep(cfg, mk, ts, sim.QueueOps, sim.ProfileTileGx())
	}
	for r, th := range threadSweep {
		t.AddRow(th, cols[0][r].Mops(), cols[1][r].Mops(), cols[2][r].Mops(),
			cols[3][r].Mops(), cols[4][r].Mops(), cols[5][r].Mops())
	}
	t.Render(os.Stdout)
}

// fig5b: stack throughput under balanced load, five variants.
func fig5b(cfg figConfig) {
	mks := []func() *sim.Builder{
		func() *sim.Builder { return sim.NewMPServerBuilder(sim.StackFactory) },
		func() *sim.Builder { return sim.NewHybCombBuilder(sim.StackFactory, cfg.MaxOps) },
		func() *sim.Builder { return sim.NewSHMServerBuilder(sim.StackFactory) },
		func() *sim.Builder { return sim.NewCCSynchBuilder(sim.StackFactory, cfg.MaxOps) },
		sim.NewTreiberBuilder,
	}
	t := harness.NewTable("Figure 5b — stack throughput under balanced load (Mops/sec)",
		"clients", "mp-server", "HybComb", "shm-server", "CC-Synch", "Treiber")
	cols := make([][]sim.Result, len(mks))
	for i, mk := range mks {
		cols[i] = sweep(cfg, mk, threadSweep, sim.StackOps, sim.ProfileTileGx())
	}
	for r, th := range threadSweep {
		t.AddRow(th, cols[0][r].Mops(), cols[1][r].Mops(), cols[2][r].Mops(),
			cols[3][r].Mops(), cols[4][r].Mops())
	}
	t.Render(os.Stdout)
}

// figCAS: the §5.3 text measurements — executed CAS per apply_op and the
// fairness ratio across the concurrency spectrum.
func figCAS(cfg figConfig) {
	t := harness.NewTable("§5.3 text — HybComb CAS per op and fairness across concurrency",
		"threads", "CAS/op", "CAS fail/op", "fairness HybComb", "fairness mp-server")
	for _, th := range threadSweep {
		hy := average(cfg, func() *sim.Builder {
			return sim.NewHybCombBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		mp := average(cfg, func() *sim.Builder {
			return sim.NewMPServerBuilder(sim.CounterFactory)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		t.AddRow(th,
			float64(hy.CASAttempts)/float64(hy.Ops),
			float64(hy.CASFailures)/float64(hy.Ops),
			hy.Fairness(), mp.Fairness())
	}
	t.Render(os.Stdout)
}

// figX86: §5.5 — the pure-shared-memory approaches on an x86-like
// profile: lower peak throughput and proportionally more stalls than on
// the TILE-Gx, supporting the paper's claim that hardware message
// passing would help even more there.
func figX86(cfg figConfig) {
	prof := sim.ProfileX86Like()
	maxTh := prof.NumCores() - 1
	t := harness.NewTable("§5.5 — counter on x86-like profile (no hardware messaging)",
		"threads", "shm-server Mops", "CC-Synch Mops", "shm-server stall/op")
	for th := 1; th <= maxTh; th++ {
		th := th
		shm := average(cfg, func() *sim.Builder {
			return sim.NewSHMServerBuilder(sim.CounterFactory)
		}, th, sim.CounterOps, prof)
		cc := average(cfg, func() *sim.Builder {
			return sim.NewCCSynchBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, prof)
		t.AddRow(th, shm.Mops(), cc.Mops(), float64(shm.ServiceStall)/float64(shm.Ops))
	}
	t.Render(os.Stdout)
}

// figAblateSwap: §4.2 design discussion — CAS vs SWAP for combiner
// registration.
func figAblateSwap(cfg figConfig) {
	t := harness.NewTable("Ablation — combiner registration: CAS (paper) vs SWAP (§4.2 discussion)",
		"threads", "CAS Mops", "SWAP Mops", "CAS comb.rate", "SWAP comb.rate")
	for _, th := range []int{5, 15, 25, 35} {
		cas := average(cfg, func() *sim.Builder {
			return sim.NewHybCombBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		swp := average(cfg, func() *sim.Builder {
			b := &sim.Builder{Name: "HybComb-SWAP"}
			b.Make = func(e *sim.Engine, threads int) (sim.Executor, []*sim.Proc, int) {
				h := sim.NewHybComb(e, sim.NewCounter(e), cfg.MaxOps)
				h.SwapRegistration = true
				b.Stats = func() (uint64, uint64) { return h.Rounds, h.Combined }
				return h, nil, 0
			}
			return b
		}, th, sim.CounterOps, sim.ProfileTileGx())
		t.AddRow(th, cas.Mops(), swp.Mops(), cas.CombiningRate(), swp.CombiningRate())
	}
	t.Render(os.Stdout)
}

// figAblateDrain: §4.2 — value of the eager-drain loop (lines 25-28).
func figAblateDrain(cfg figConfig) {
	t := harness.NewTable("Ablation — HybComb eager-drain loop (Algorithm 1 lines 25-28)",
		"threads", "with drain Mops", "no drain Mops", "with comb.rate", "no comb.rate")
	for _, th := range []int{5, 15, 25, 35} {
		with := average(cfg, func() *sim.Builder {
			return sim.NewHybCombBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		without := average(cfg, func() *sim.Builder {
			b := &sim.Builder{Name: "HybComb-NoDrain"}
			b.Make = func(e *sim.Engine, threads int) (sim.Executor, []*sim.Proc, int) {
				h := sim.NewHybComb(e, sim.NewCounter(e), cfg.MaxOps)
				h.NoEagerDrain = true
				b.Stats = func() (uint64, uint64) { return h.Rounds, h.Combined }
				return h, nil, 0
			}
			return b
		}, th, sim.CounterOps, sim.ProfileTileGx())
		t.AddRow(th, with.Mops(), without.Mops(), with.CombiningRate(), without.CombiningRate())
	}
	t.Render(os.Stdout)
}

func builderNames(bs []*sim.Builder) []string {
	out := make([]string, len(bs))
	for i, b := range bs {
		out[i] = b.Name
	}
	return out
}

// figLocks: supplementary — the §3 classic-lock baseline. Under an MCS
// queue lock the CS executes on the acquiring core, migrating the
// object's lines on every operation; the server/combining approaches
// keep them resident at the servicing thread.
func figLocks(cfg figConfig) {
	t := harness.NewTable("Supplementary — MCS queue lock vs CS-migration approaches (counter, Mops/sec)",
		"threads", "mcs-lock", "CC-Synch", "mp-server", "HybComb")
	for _, th := range []int{1, 3, 7, 14, 24, 35} {
		mcs := average(cfg, func() *sim.Builder {
			return sim.NewMCSLockBuilder(sim.CounterFactory)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		cc := average(cfg, func() *sim.Builder {
			return sim.NewCCSynchBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		mp := average(cfg, func() *sim.Builder {
			return sim.NewMPServerBuilder(sim.CounterFactory)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		hy := average(cfg, func() *sim.Builder {
			return sim.NewHybCombBuilder(sim.CounterFactory, cfg.MaxOps)
		}, th, sim.CounterOps, sim.ProfileTileGx())
		t.AddRow(th, mcs.Mops(), cc.Mops(), mp.Mops(), hy.Mops())
	}
	t.Render(os.Stdout)
}

// figTail: supplementary — the latency "hiccups" behind the Figure 3c
// tradeoff: raising MAX_OPS raises HYBCOMB throughput but the thread
// that becomes a combiner occasionally pays a round's worth of latency.
func figTail(cfg figConfig) {
	t := harness.NewTable("Supplementary — latency distribution at 35 threads (cycles)",
		"approach", "p50", "p99", "max", "Mops")
	entries := []struct {
		name string
		mk   func() *sim.Builder
	}{
		{"mp-server", func() *sim.Builder { return sim.NewMPServerBuilder(sim.CounterFactory) }},
		{"HybComb/200", func() *sim.Builder { return sim.NewHybCombBuilder(sim.CounterFactory, 200) }},
		{"HybComb/5000", func() *sim.Builder { return sim.NewHybCombBuilder(sim.CounterFactory, 5000) }},
		{"CC-Synch/200", func() *sim.Builder { return sim.NewCCSynchBuilder(sim.CounterFactory, 200) }},
	}
	for _, en := range entries {
		res := sim.RunWorkload(sim.ProfileTileGx(), en.mk(), sim.WorkloadCfg{
			Threads: 35, Horizon: cfg.Horizon, MaxLocalWork: 50, Seed: 1,
			RecordLatencies: true,
		}, sim.CounterOps)
		t.AddRow(en.name, res.LatencyPercentile(0.50), res.LatencyPercentile(0.99),
			res.LatencyPercentile(1.0), res.Mops())
	}
	t.Render(os.Stdout)
}
