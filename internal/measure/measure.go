// Package measure is the one native measurement loop: Run drives one
// grid point (benchfmt.Point: algo × threads × shards × dist × depth ×
// batch) through the native harness for a fixed duration and returns
// one complete benchfmt.Record; Guard bounds a cell by a hard timeout.
// cmd/hybsweep enumerates points and streams the records; nothing else
// in the tree produces a native number besides the contract benchmark.
package measure

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/benchfmt"
	"hybsync/internal/core"
	"hybsync/internal/telemetry"
	"hybsync/object"
)

// telemetryOff inverts the default: Run arms telemetry unless
// SetTelemetry(false) disarmed it, so records carry latency and
// run-length fields out of the box and the overhead-sensitive CI gates
// opt out explicitly (hybsweep -telemetry=false).
var telemetryOff atomic.Bool

// SetTelemetry arms (true, the default) or disarms (false) telemetry
// for every subsequently started Run.
func SetTelemetry(on bool) { telemetryOff.Store(!on) }

// newTel returns a fresh armed metric core, or nil when SetTelemetry
// disarmed measurement telemetry — nil flows through WithTelemetry and
// every record hook as the zero-cost disarmed state.
func newTel() *telemetry.Telemetry {
	if telemetryOff.Load() {
		return nil
	}
	return telemetry.New()
}

// telFields copies tel's merged histograms onto rec: the sampled
// blocking-latency percentiles and the unsampled run-length profile.
// A nil tel (telemetry disarmed) or an empty histogram leaves the
// corresponding field absent, matching the pointer-omitted schema.
func telFields(rec *benchfmt.Record, tel *telemetry.Telemetry) {
	if tel == nil {
		return
	}
	snap := tel.Snapshot()
	if l := snap.Latency; l.Count > 0 {
		rec.Lat = &benchfmt.Latency{
			P50:     l.Quantile(0.50),
			P90:     l.Quantile(0.90),
			P99:     l.Quantile(0.99),
			P999:    l.Quantile(0.999),
			Max:     l.Max,
			Samples: l.Count,
		}
	}
	if r := snap.RunLen; r.Count > 0 {
		rec.RunLen = &benchfmt.RunLength{
			P50:        r.Quantile(0.50),
			P99:        r.Quantile(0.99),
			Max:        r.Max,
			Mean:       r.Mean(),
			Dispatches: r.Count,
		}
	}
}

// live is the cell Run is driving right now — its executor or sharded
// counter — so Guard's timeout can condemn what the abandoned cell
// leaked: its waiters unblock with ErrPoisoned and its server
// goroutines drain and exit, instead of a wedged construction living
// until process exit. Cells run one at a time, so one slot is enough;
// a later cell simply takes it over from an abandoned one.
var live atomic.Pointer[any]

// poisonable matches hybsync.Poisonable and the object wrappers'
// Poison passthroughs.
type poisonable interface{ Poison(v any) }

// track makes x the live cell under label (and, when tel is armed,
// registers it in the telemetry registry the /debug/hybsync endpoint
// walks) and returns the combined untrack function.
func track(x any, label string, tel *telemetry.Telemetry) func() {
	live.Store(&x)
	unreg := telemetry.Register(label, tel)
	return func() {
		unreg()
		live.CompareAndSwap(&x, nil)
	}
}

// poisonLive condemns the live cell, if there is one and it accepts
// faults, with reason. It is safe from any goroutine — Guard calls it
// while the abandoned cell is still running — and counted in the
// telemetry registry's timeout-condemns counter.
func poisonLive(reason any) {
	if x := live.Load(); x != nil {
		if p, ok := (*x).(poisonable); ok {
			p.Poison(reason)
			telemetry.NoteCondemned()
		}
	}
}

// Guard runs one cell's measurement under a hard timeout (none when
// timeout <= 0). A panic in run comes back as an error carrying the
// stack. A cell that exceeds the timeout fails, poisonLive condemns
// what it was driving, and its goroutine is abandoned — goroutines
// cannot be killed, so a truly wedged measurement leaks until process
// exit: the accepted cost of turning a deadlocked construction into a
// red sweep record instead of a hung harness.
func Guard(timeout time.Duration, run func() (benchfmt.Record, error)) (benchfmt.Record, error) {
	type outcome struct {
		rec benchfmt.Record
		err error
	}
	done := make(chan outcome, 1) // buffered: an abandoned cell must not block forever on its send
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- outcome{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		rec, err := run()
		done <- outcome{rec, err}
	}()
	var expired <-chan time.Time
	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case o := <-done:
		return o.rec, o.err
	case <-expired:
		err := fmt.Errorf("timed out after %v (goroutine abandoned)", timeout)
		poisonLive(err.Error())
		return benchfmt.Record{}, err
	}
}

// Check vets the symbolic axes p has set, ahead of any Run: a non-empty
// Algo must be registered and a non-empty Dist must parse as a key
// distribution over keys or as a phase shape. It is benchfmt.ParseGrid's
// vet hook, shown each -grid value alone.
func Check(p benchfmt.Point, keys uint64) error {
	if p.Algo != "" && !slices.Contains(hybsync.Algorithms(), p.Algo) {
		return fmt.Errorf("unknown algorithm %q (have: %s)", p.Algo, strings.Join(hybsync.Algorithms(), ", "))
	}
	var err error
	switch {
	case p.Dist == "":
	case harness.IsPhaseSpec(p.Dist):
		_, err = harness.ParsePhases(p.Dist)
	default:
		_, err = harness.ParseDist(p.Dist, keys)
	}
	if err != nil {
		return fmt.Errorf("dist %q: %w", p.Dist, err)
	}
	return nil
}

// The bench kinds a defined cell classifies onto (the record's bench
// field).
const (
	benchCounter = "counter"
	benchAsync   = "async"
	benchBatch   = "batch"
	benchSharded = "sharded"
	benchPhases  = "phases"
)

// Skip reasons for grid corners the execution model does not define.
const (
	skipBatchDepth  = "batch-and-depth-exclusive"
	skipAsyncKeyed  = "async-over-keyed-unsupported"
	skipPhaseAsync  = "phases-over-async-unsupported"
	skipPhaseBatch  = "phases-over-batch-unsupported"
	skipPhaseShards = "phases-over-sharded-unsupported"
)

// Classify maps a point to its bench kind, or to a skip reason when the
// combination is undefined. A cell is keyed when it shards the object
// or skews the key distribution; a keyed cell with batch > 1 issues its
// keys batch at a time through the router's MultiApply, while the
// depth-window loop drives the scalar uniform counter only. A phase:...
// dist value is not a key distribution at all — it selects the
// phase-shifting load shape, which drives the scalar blocking counter
// only.
func Classify(c benchfmt.Point) (bench, skip string) {
	if harness.IsPhaseSpec(c.Dist) {
		switch {
		case c.Depth > 1:
			return "", skipPhaseAsync
		case c.Batch > 1:
			return "", skipPhaseBatch
		case c.Shards > 1:
			return "", skipPhaseShards
		default:
			return benchPhases, ""
		}
	}
	keyed := c.Shards > 1 || c.Dist != "uniform"
	switch {
	case c.Depth > 1 && c.Batch > 1:
		return "", skipBatchDepth
	case c.Depth > 1 && keyed:
		return "", skipAsyncKeyed
	case keyed:
		return benchSharded, ""
	case c.Depth > 1:
		return benchAsync, ""
	case c.Batch > 1:
		return benchBatch, ""
	default:
		return benchCounter, ""
	}
}

// counter is the scalar cells' object: a run of increments reads the
// shared value once, hands out results from a register and writes the
// sum back — the object-side amortization DispatchBatch exists for.
type counter struct{ state uint64 }

func (o *counter) DispatchBatch(reqs []hybsync.Req, results []uint64) {
	v := o.state
	for i := range reqs {
		results[i] = v
		v++
	}
	o.state = v
}

// window is the depth-window loop body: keep up to depth submissions
// outstanding on h, waiting on the oldest once the window fills. The
// drain is h.Flush, run by the worker itself while its peers are still
// going (the drain half of harness.RunNativeDrain, whose comment tells
// why that is the convention).
func window(h hybsync.Handle, depth int) (body func(uint64), drain func()) {
	win := make([]hybsync.Ticket, depth)
	var head, count int
	return func(uint64) {
		if count == depth {
			h.Wait(win[head])
			head = (head + 1) % depth
			count--
		}
		tk, err := h.Submit(0, 0)
		if err != nil {
			panic(err)
		}
		win[(head+count)%depth] = tk
		count++
	}, h.Flush
}

// Run measures one cell: c.Threads goroutines drive one object through
// c.Algo for dur, separated by up to 50 iterations of local work.
//
// The cell's kind (Classify) picks the object and the loop body, and
// nothing else: a keyed cell increments a sharded counter under keys
// drawn from c.Dist over a key space of keys values — one Inc per
// iteration, or with c.Batch > 1 one IncAll (a router MultiApply) of
// c.Batch keys; every other cell drives
// one scalar counter through blocking Apply (counter, phases), a
// depth-c.Depth Submit/Wait window (async) or ApplyBatch calls of
// c.Batch requests (batch). A phases cell runs the Apply loop under the
// burst/idle clock of harness.Phases instead of flat out.
//
// The returned record is complete — throughput and fairness per
// operation (a batch iteration counts c.Batch), every axis, and the
// counters the construction keeps — and checked: after Close the
// object's state must equal the operations the harness counted, or Run
// fails rather than record a number for work that was lost or done
// twice. Records of cells with c.Batch > 1, and async records of the
// constructions whose window defers (core.WindowDefers), carry no
// rounds/combined (their scalar identity rounds+combined==ops fails when
// one round holds many of its owner's operations; see core.StatsSource).
func Run(c benchfmt.Point, keys uint64, dur time.Duration) (benchfmt.Record, error) {
	bench, skip := Classify(c)
	if skip != "" {
		return benchfmt.Record{}, fmt.Errorf("cell %s is undefined: %s", c, skip)
	}
	run := harness.RunNativeDrain
	var dist harness.Dist
	var err error
	switch bench {
	case benchPhases:
		var ph harness.Phases
		ph, err = harness.ParsePhases(c.Dist)
		run = ph.RunPhased
	case benchSharded:
		dist, err = harness.ParseDist(c.Dist, keys)
	}
	if err != nil {
		return benchfmt.Record{}, err
	}

	tel := newTel()
	// Sized generously enough for any thread count a grid drives.
	opts := []hybsync.Option{hybsync.WithMaxThreads(256), hybsync.WithTelemetry(tel)}
	var (
		sc     *object.ShardedCounter     // keyed cells
		ex     hybsync.Executor           // scalar cells
		drive  interface{ Close() error } // whichever of the two this cell drives
		state  func() uint64              // the object's value, read at quiescence
		setup  func(t int) (body func(uint64), drain func())
		defers bool // ex's handles defer their window (core.WindowDefers)
	)
	if bench == benchSharded {
		if sc, err = object.NewShardedCounter(c.Algo, c.Shards, opts...); err != nil {
			return benchfmt.Record{}, fmt.Errorf("NewShardedCounter(%s, %d): %w", c.Algo, c.Shards, err)
		}
		drive, state = sc, sc.Value
		setup = func(t int) (func(uint64), func()) {
			h, err := sc.NewHandle()
			if err != nil {
				panic(err)
			}
			draw := dist.Sampler(t)
			if c.Batch > 1 {
				batch := make([]uint64, c.Batch)
				return func(uint64) {
					for i := range batch {
						batch[i] = draw()
					}
					if _, err := h.IncAll(batch); err != nil {
						panic(err)
					}
				}, nil
			}
			return func(uint64) {
				if _, err := h.Inc(draw()); err != nil {
					panic(err)
				}
			}, nil
		}
	} else {
		ctr := &counter{}
		if ex, err = hybsync.NewObject(c.Algo, ctr, opts...); err != nil {
			return benchfmt.Record{}, fmt.Errorf("NewObject(%s): %w", c.Algo, err)
		}
		drive, state = ex, func() uint64 { return ctr.state }
		setup = func(t int) (func(uint64), func()) {
			h := hybsync.MustHandle(ex)
			if t == 0 { // every handle of one executor answers alike
				defers = core.WindowDefers(h)
			}
			switch bench {
			case benchAsync:
				return window(h, c.Depth)
			case benchBatch:
				reqs := make([]hybsync.Req, c.Batch)
				rets := make([]uint64, c.Batch)
				return func(uint64) { h.ApplyBatch(reqs, rets) }, nil
			default:
				return func(uint64) { h.Apply(0, 0) }, nil
			}
		}
	}
	defer track(drive, bench+"/"+c.Algo, tel)()

	res := run(c.Threads, dur, 50, setup)
	// One iteration is c.Batch operations.
	res.Ops *= uint64(c.Batch)
	for i := range res.PerThread {
		res.PerThread[i] *= uint64(c.Batch)
	}

	rec := benchfmt.Record{Bench: bench, Point: c, Ops: res.Ops, Mops: res.Mops(), Fairness: res.Fairness()}
	if rec.Mops > 0 {
		rec.NsPerOp = 1e3 / rec.Mops
	}
	// Every handle has drained, so the quiescence-only counters are
	// readable; Close comes after because it tears the executors down.
	if sc != nil {
		occ := sc.Occupancy()
		sf := harness.NativeResult{PerThread: occ}.Fairness()
		rec.ShardOps, rec.ShardFairness = occ, &sf
		if c.Batch == 1 {
			rec.Rounds, rec.Combined, _ = sc.Stats()
		}
		if st, d, ok := sc.Pipeline(); ok {
			rec.Pipe = &benchfmt.Pipeline{SubmitStalls: st, MaxDepth: d}
		}
	} else {
		// A deferring handle's window executes as one round of many own
		// operations, the unit mix a batch has.
		if s, ok := ex.(hybsync.StatsSource); ok && c.Batch == 1 && !(bench == benchAsync && defers) {
			rec.Rounds, rec.Combined = s.Stats()
		}
		if p, ok := ex.(hybsync.PipelineStats); ok {
			st, d := p.Pipeline()
			rec.Pipe = &benchfmt.Pipeline{SubmitStalls: st, MaxDepth: d}
		}
		if a, ok := ex.(hybsync.AdaptiveStats); ok {
			p, d := a.Transitions()
			rec.Adapt = &benchfmt.Adaptive{Promotions: p, Demotions: d}
		}
	}
	if err := drive.Close(); err != nil {
		return benchfmt.Record{}, fmt.Errorf("Close(%s): %w", c.Algo, err)
	}
	if got := state(); got != res.Ops {
		return benchfmt.Record{}, fmt.Errorf("%s(%s): conservation violated: object executed %d ops, harness counted %d",
			bench, c.Algo, got, res.Ops)
	}
	telFields(&rec, tel)
	return rec, nil
}
