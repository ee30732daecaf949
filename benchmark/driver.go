package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// construction names one measured critical-section construction: its
// registry name and the layer (module) its per-layer metrics are
// reported under.
type construction struct{ algo, layer string }

// measured are the constructions behind the end-to-end metrics, run
// with telemetry disarmed — the user default. shmserver is traced-only:
// its throughput is bimodal with goroutine placement (0.76 or 1.15 Mops
// between identical runs), so a bound on it would gate scheduler luck.
var (
	measured = []construction{
		{"mpserver", "core.mpserver"},
		{"hybcomb", "core.hybcomb"},
		{"ccsynch", "shmsync.ccsynch"},
		{"mcs-lock", "spin.mcs-lock"},
		{"hybrid", "core.hybrid"},
	}
	tracedOnly = construction{"shmserver", "shmsync.shmserver"}

	// The two sides of the paper's comparison: the message-passing
	// constructions are the only users of internal/mpq.
	familyMP  = []string{"mpserver", "hybcomb"}
	familySHM = []string{"ccsynch", "mcs-lock", "hybrid"}
)

// plan is how one construction is measured on one workload: rounds
// fresh executors, each warmed up and then read at segments segment
// boundaries. Rounds matter as much as segments because goroutine
// placement, and with it the combiner and registrant roles, settle when
// an executor starts and then stick: two executors of one process can
// differ by 2× (hybcomb on pipelined-window) while the segments of one
// differ by a few percent.
type plan struct {
	rounds   int
	segments int
	segment  time.Duration
	warmup   time.Duration
	ref      time.Duration // one reading of the host-speed reference (end-to-end pass)
}

// The host-speed reference. This benchmark runs on a few cores of a
// shared host whose single-thread speed moves by 20 % for minutes at a
// time: ten back-to-back runs of solo-apply read mops_shm 13.7 in the
// first six and 17.2 in the last four, every construction and
// cpu_ns_per_op moving together, no steal time reported. No estimator
// over one run's own segments can tell that from a regression, so the
// end-to-end pass times a fixed loop of the benchmark's own — one client
// of the solo-apply loop over a sync.Mutex counter (mutexSystem) — before
// every round and after the last, and states each end-to-end metric as it
// would read on a host where that loop runs at refNominalMops: rates are
// multiplied by refNominalMops/reference, times divided by it. The
// reference is benchmark code, so no change to the repository moves it,
// and the uncorrected numbers are printed beside it.
const (
	refNominalMops = 33.0 // the reference on this host when it is calm
	refShare       = 0.16 // of the measured seconds go to reference readings
	refWarmup      = 20 * time.Millisecond
)

// planFor spreads seconds of measured time over the host-speed reference
// (refShare, as one reading per round plus one) and the five
// constructions as 5 rounds × 4 segments each (210 ms segments and 153 ms
// reference readings at the contract's 25 s).
//
// The 0.2 s warm-up is not optional: for its first few hundred
// milliseconds an mpserver client can share a processor with its server,
// handing over by yielding at twice the steady cross-core rate. A plan
// of 20 rounds × one 250 ms segment after 50 ms measured that transient
// and read solo-apply's mpserver at 0.84 or 1.7 Mops from run to run.
func planFor(seconds float64) plan {
	const rounds, segments = 5, 4
	n := len(measured) * rounds
	dur := func(share float64, readings int) time.Duration {
		return time.Duration(seconds * share / float64(readings) * float64(time.Second))
	}
	return plan{
		rounds: rounds, segments: segments,
		segment: dur(1-refShare, n*segments), warmup: 200 * time.Millisecond,
		ref: dur(refShare, n+1),
	}
}

// Set-up is a millisecond or less on the counter workloads, and a
// collection or a page fault landing in one doubles it, so each
// construction is set up again and again before the rounds: at least
// minSetups times, then on until setupBudget is spent or maxSetups are
// timed. That is 100 set-ups of a counter workload (25 ms) and 15 of
// sharded-multi's prefilled map (0.2 s).
const (
	minSetups   = 15
	maxSetups   = 100
	setupBudget = 150 * time.Millisecond
)

// pubCell is one client's published op count on its own cache line.
type pubCell struct {
	n atomic.Uint64
	_ [56]byte
}

// segment is one measured interval of a round.
type segment struct {
	ops uint64
	dur time.Duration
	cpu time.Duration // process CPU (user+system), all threads
}

func (s segment) mops() float64 { return float64(s.ops) / s.dur.Seconds() / 1e6 }

// roundResult is one executor's life: set-up, warm-up, segments, oracle.
type roundResult struct {
	setup     time.Duration
	segs      []segment
	attempted uint64
	failed    uint64
	mallocs   uint64 // heap allocations during the measured segments
	gcs       uint32
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runRound builds one system with mk (timed as its set-up), drives it
// closed-loop, closes it and checks it. The finished system is returned
// for the traced pass, which reads the stats interfaces off it.
func runRound(mk func() (*system, error), p plan) (roundResult, *system, error) {
	var res roundResult
	t0 := time.Now()
	sys, err := mk()
	if err != nil {
		return res, nil, err
	}
	res.setup = time.Since(t0)

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		pubs    = make([]pubCell, len(sys.clients))
		ops     = make([]uint64, len(sys.clients))
		failed  = make([]uint64, len(sys.clients))
		started = time.Now()
	)
	for i, c := range sys.clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			ops[i], failed[i] = c.loop(&stop, &pubs[i].n)
		}(i, c)
	}
	read := func() (uint64, time.Duration, time.Duration) {
		var n uint64
		for i := range pubs {
			n += pubs[i].n.Load()
		}
		return n, time.Since(started), cpuTime()
	}
	time.Sleep(p.warmup)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	n0, t0d, c0 := read()
	for s := 0; s < p.segments; s++ {
		time.Sleep(p.segment)
		n1, t1, c1 := read()
		res.segs = append(res.segs, segment{ops: n1 - n0, dur: t1 - t0d, cpu: c1 - c0})
		n0, t0d, c0 = n1, t1, c1
	}
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.gcs = ms1.Mallocs-ms0.Mallocs, ms1.NumGC-ms0.NumGC
	stop.Store(true)
	wg.Wait()

	for i := range ops {
		res.attempted += ops[i]
		res.failed += failed[i]
	}
	f, err := sys.finish(res.attempted)
	if err != nil {
		return res, nil, err
	}
	res.failed += f
	return res, sys, nil
}

// constructionResult pools one construction's rounds on one workload.
type constructionResult struct {
	mops       float64   // mid-mean over the pooled segments
	cpuNsPerOp float64   // mid-mean over the pooled segments
	setups     []float64 // every round's set-up, seconds
	setup      float64   // median over those and the extra set-ups (end-to-end pass)
	attempted  uint64
	failed     uint64
}

func pool(rounds []roundResult) constructionResult {
	var (
		c         constructionResult
		mops, cpu []float64
	)
	for _, r := range rounds {
		for _, s := range r.segs {
			mops = append(mops, s.mops())
			if s.ops > 0 {
				cpu = append(cpu, float64(s.cpu.Nanoseconds())/float64(s.ops))
			}
		}
		c.setups = append(c.setups, r.setup.Seconds())
		c.attempted += r.attempted
		c.failed += r.failed
	}
	c.mops, c.cpuNsPerOp = midMean(mops), midMean(cpu)
	return c
}

// endToEnd is one workload's end-to-end result.
type endToEnd struct {
	metrics   map[string]float64 // as on a host whose reference reads refNominalMops
	raw       map[string]float64 // as measured
	refMops   float64            // the host-speed reference, mid-mean of its readings
	per       map[string]constructionResult
	attempted uint64
	failed    uint64
}

// runEndToEnd measures the five constructions on workload with tracing
// off. Rounds are interleaved across constructions (round r of every
// construction before round r+1 of any) and with readings of the
// host-speed reference, so slow drift of the host lands on all of them
// alike.
func runEndToEnd(workload string, in *inputs, p plan, wrap objectWrap) (endToEnd, error) {
	rounds := make(map[string][]roundResult)
	setups := make(map[string][]float64)
	for _, c := range measured {
		began := time.Now()
		for i := 0; i < maxSetups && (i < minSetups || time.Since(began) < setupBudget); i++ {
			t0 := time.Now()
			sys, err := build(workload, c.algo, in, i, wrap, nil)
			if err != nil {
				return endToEnd{}, fmt.Errorf("%s on %s: %w", workload, c.algo, err)
			}
			setups[c.algo] = append(setups[c.algo], time.Since(t0).Seconds())
			if _, err := sys.finish(0); err != nil {
				return endToEnd{}, err
			}
		}
	}
	e := endToEnd{metrics: map[string]float64{}, per: map[string]constructionResult{}}
	var refs []float64
	readRef := func() error {
		res, _, err := runRound(func() (*system, error) { return mutexSystem(wlSolo, in), nil },
			plan{segments: 1, segment: p.ref, warmup: refWarmup})
		if err != nil {
			return fmt.Errorf("host-speed reference: %w", err)
		}
		// The reference is not the program under test: its operations are
		// not counted as attempted, but a wrong count there is still a
		// failure of the run.
		e.failed += res.failed
		refs = append(refs, res.segs[0].mops())
		return nil
	}
	for r := 0; r < p.rounds; r++ {
		for _, c := range measured {
			if err := readRef(); err != nil {
				return endToEnd{}, err
			}
			res, _, err := runRound(func() (*system, error) {
				return build(workload, c.algo, in, r, wrap, nil)
			}, p)
			if err != nil {
				return endToEnd{}, fmt.Errorf("%s on %s: %w", workload, c.algo, err)
			}
			rounds[c.algo] = append(rounds[c.algo], res)
		}
	}
	if err := readRef(); err != nil {
		return endToEnd{}, err
	}
	e.refMops = midMean(refs)
	if e.refMops <= 0 {
		return endToEnd{}, fmt.Errorf("host-speed reference completed no operation")
	}
	var all, cpu []float64
	var setup float64
	for _, c := range measured {
		cr := pool(rounds[c.algo])
		cr.setup = median(append(setups[c.algo], cr.setups...))
		e.per[c.algo] = cr
		all = append(all, cr.mops)
		cpu = append(cpu, cr.cpuNsPerOp)
		setup += cr.setup
		e.attempted += cr.attempted
		e.failed += cr.failed
	}
	family := func(algos []string) float64 {
		var v []float64
		for _, a := range algos {
			v = append(v, e.per[a].mops)
		}
		return geomean(v)
	}
	e.raw = map[string]float64{
		"mops_all":      geomean(all),
		"mops_mp":       family(familyMP),
		"mops_shm":      family(familySHM),
		"cpu_ns_per_op": geomean(cpu),
		"setup_s":       setup, // one set-up of every construction: the sum of their medians
	}
	scale := refNominalMops / e.refMops
	for k, v := range e.raw {
		if strings.HasPrefix(k, "mops_") {
			e.metrics[k] = v * scale
		} else {
			e.metrics[k] = v / scale
		}
	}
	return e, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// midMean is the interquartile mean: the mean of the middle half of v.
// Like the median it ignores a noisy neighbour's burst or a start-up
// transient (up to a quarter of the segments on either side), but it
// averages ten segments where the median reads one or two. On this
// host's 2-client workloads, whose 250 ms segments swing by 20 %, that
// cut the run-to-run spread of mops_mp from about 6 % to about 4.5 %
// (README.md "Steadiness").
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	k := len(s) / 4
	var sum float64
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}
