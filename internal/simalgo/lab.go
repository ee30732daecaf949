package simalgo

import (
	"fmt"
	"slices"

	"hybsync/internal/tilesim"
)

// Cell names one simulated data point: which construction executes
// which object for how many application threads on which chip. It is
// comparable, so it keys the Lab's memo and a figure is a table of
// them. The methodology is the paper's (§5.2): every thread repeatedly
// applies an operation, with up to 50 empty loop iterations of local
// work in between; threads are pinned to cores in ascending order after
// the construction's server cores.
type Cell struct {
	Algo    string // a name from Constructions
	Object  string // a name from Objects
	Threads int    // application threads (servers not counted)
	MaxOps  int    // MAX_OPS of a combining construction; ignored by the others
	CSLen   uint64 // "array" object: cells incremented per operation (Fig. 4c)
	Profile string // "" or "tilegx": the paper's TILE-Gx; "x86": the §5.5 part

	// ProcsPerCore oversubscribes application threads onto cores (§6:
	// the TILE-Gx multiplexes four hardware queues per core, so up to
	// four threads can share a core and keep private message queues).
	// 0 means one thread per core.
	ProcsPerCore int

	// RecordLatencies keeps every per-op latency for percentile analysis
	// (the paper's §5.3 discussion of combiner "hiccups"). Such a cell
	// is one run, seed 1: its percentiles describe one distribution.
	RecordLatencies bool
}

// maxLocalWork bounds the empty-loop iterations between operations.
const maxLocalWork = 50

// Result is a cell's measurements, summed over the Lab's runs.
type Result struct {
	Cell       Cell     // the cell measured, in canonical form
	Cycles     uint64   // simulated cycles elapsed
	Ops        uint64   // operations completed by application threads
	LatencySum uint64   // sum of per-op latencies (cycles)
	Latencies  []uint64 // per-op latencies when Cell.RecordLatencies
	FreqGHz    float64

	// Per-thread op counts for fairness (max/min ratio, §5.3).
	PerThreadOps []uint64

	// Servicing-thread accounting (Figure 4a): busy and stalled cycles
	// of the Procs executing critical sections — the dedicated servers,
	// or else the busiest application thread, which is the combiner when
	// MAX_OPS is high enough to fix one for the run (footnote 4).
	ServiceBusy  uint64
	ServiceStall uint64

	// Client-side atomic statistics (§5.3: CAS per operation).
	CASAttempts uint64
	CASFailures uint64

	// Combining statistics (Figure 4b), zero unless the executor is a
	// Combiner.
	Rounds   uint64
	Combined uint64
}

// Mops returns throughput in million operations per second, using the
// profile's clock frequency to convert cycles to wall time (the paper's
// y-axis in Figures 3a, 5a, 5b).
func (r Result) Mops() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Ops) * r.FreqGHz * 1e3 / float64(r.Cycles)
}

// AvgLatency returns the mean per-operation latency in cycles (Figure 3b).
func (r Result) AvgLatency() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.LatencySum) / float64(r.Ops)
}

// Fairness returns the ratio between the highest and lowest per-thread
// op counts (1.0 = ideal, §5.3).
func (r Result) Fairness() float64 {
	if len(r.PerThreadOps) == 0 || slices.Min(r.PerThreadOps) == 0 {
		return 0
	}
	return float64(slices.Max(r.PerThreadOps)) / float64(slices.Min(r.PerThreadOps))
}

// LatencyPercentile returns the q-th percentile (0..1) of recorded
// per-op latencies; Cell.RecordLatencies must have been set.
func (r Result) LatencyPercentile(q float64) uint64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(r.Latencies))
	return s[int(q*float64(len(s)-1))]
}

// CombiningRate returns the average number of requests a combiner served
// per round, including its own op (Figure 4b's y-axis).
func (r Result) CombiningRate() float64 {
	if r.Rounds == 0 {
		return 0
	}
	return float64(r.Combined+r.Rounds) / float64(r.Rounds)
}

// simulation is one finished run: its Result plus the engine and the
// object for inspection. Only counters and memory may be read.
type simulation struct {
	Result
	engine *tilesim.Engine
	obj    Object // nil when the construction is its own object
}

// simulate runs p once over a fresh engine for horizon cycles.
func simulate(p plan, horizon, seed uint64) *simulation {
	e := tilesim.NewEngine(p.prof)
	e.SetSeed(seed)
	exec, service, obj := p.wire(e)

	res := Result{Cell: p.Cell, Cycles: horizon, FreqGHz: p.prof.FreqGHz}
	res.PerThreadOps = make([]uint64, p.Threads)
	clients := make([]*tilesim.Proc, p.Threads)
	for t := range clients {
		clients[t] = e.Spawn(fmt.Sprintf("app-%d", t), p.k.servers+t/p.ProcsPerCore, func(pr *tilesim.Proc) {
			h := exec.Handle(pr)
			for i := uint64(0); pr.Now() < horizon; i++ {
				op, arg := p.o.op(p.Cell, t, i)
				t0 := pr.Now()
				h.Apply(op, arg)
				lat := pr.Now() - t0
				res.LatencySum += lat
				if p.RecordLatencies {
					res.Latencies = append(res.Latencies, lat)
				}
				res.PerThreadOps[t]++
				pr.AddOps(1)
				pr.Work(pr.Rand() % (maxLocalWork + 1))
			}
		})
	}

	e.Run(0)
	defer e.Shutdown()

	busiest := clients[0]
	for _, c := range clients {
		res.Ops += c.Ops
		res.CASAttempts += c.CASAttempts
		res.CASFailures += c.CASFailures
		if c.BusyCycles() > busiest.BusyCycles() {
			busiest = c
		}
	}
	if len(service) == 0 {
		service = []*tilesim.Proc{busiest}
	}
	for _, s := range service {
		res.ServiceBusy += s.BusyCycles()
		res.ServiceStall += s.StallCycles
	}
	if cb, ok := exec.(Combiner); ok {
		res.Rounds, res.Combined = cb.CombiningStats()
	}
	return &simulation{Result: res, engine: e, obj: obj}
}

// Lab runs cells at one horizon and run count and remembers every
// result, so a cell shared by several figures is simulated once. The
// simulator is deterministic — a cell's Result is a function of the
// cell, Horizon and Runs alone — which is what makes the memo, and
// tilebench's golden output, exact. A Lab is not safe for concurrent
// use, and the slices of a Result it returns are the memo's: read-only.
type Lab struct {
	Horizon uint64 // simulated cycles per run
	Runs    int    // runs per cell, seeds 1..Runs, summed

	memo map[memoKey]Result
	sims int // simulations actually executed
}

// memoKey is everything a Result is a function of.
type memoKey struct {
	cell    Cell // canonical
	horizon uint64
	runs    int
}

// Run measures c: Runs simulations with seeds 1..Runs, summed, or the
// remembered Result when the Lab has run an equal cell before.
func (l *Lab) Run(c Cell) (Result, error) {
	p, err := resolve(c)
	if err != nil {
		return Result{}, err
	}
	if l.Horizon < 1 || l.Runs < 1 {
		return Result{}, fmt.Errorf("simalgo: horizon and runs must be >= 1, got %d and %d", l.Horizon, l.Runs)
	}
	runs := l.Runs
	if p.RecordLatencies {
		runs = 1
	}
	key := memoKey{p.Cell, l.Horizon, runs}
	if res, ok := l.memo[key]; ok {
		return res, nil
	}
	acc := simulate(p, l.Horizon, 1).Result
	for seed := 2; seed <= runs; seed++ {
		acc.add(simulate(p, l.Horizon, uint64(seed)).Result)
	}
	l.sims += runs
	if l.memo == nil {
		l.memo = map[memoKey]Result{}
	}
	l.memo[key] = acc
	return acc, nil
}

// add sums one more run of the same cell into r.
func (r *Result) add(o Result) {
	r.Cycles += o.Cycles
	r.Ops += o.Ops
	r.LatencySum += o.LatencySum
	r.ServiceBusy += o.ServiceBusy
	r.ServiceStall += o.ServiceStall
	r.CASAttempts += o.CASAttempts
	r.CASFailures += o.CASFailures
	r.Rounds += o.Rounds
	r.Combined += o.Combined
	for i, n := range o.PerThreadOps {
		r.PerThreadOps[i] += n
	}
}

// EncodeVal packs a thread id and a per-thread sequence number into a
// 32-bit value — 6 bits of thread, 26 of sequence, because the LCRQ
// port stores 32-bit values (paper footnote 5); DecodeVal inverts it.
func EncodeVal(thread int, seq uint64) uint64 {
	return uint64(thread)<<26 | (seq & ((1 << 26) - 1))
}

// DecodeVal unpacks an EncodeVal value.
func DecodeVal(v uint64) (thread int, seq uint64) {
	return int(v >> 26 & 0x3F), v & ((1 << 26) - 1)
}
