package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hybsync"
	"hybsync/internal/core"
)

// metricDef names one per-layer metric. The list below is the single
// source of the names, units and directions; BENCHMARK.json's per_layer
// section is checked against it by a test.
type metricDef struct{ name, unit, better string }

// perConstructionDefs are reported once per construction, prefixed with
// its layer ("core.hybcomb.mops").
var perConstructionDefs = []metricDef{
	{"mops", "Mops/s", "higher"},
	{"cpu_ns_per_op", "ns", "lower"},
	{"op_ns_p50", "ns", "lower"},
	{"op_ns_p99", "ns", "lower"},
	{"queue_wait_ns_p50", "ns", "lower"},
	{"service_ns_p50", "ns", "lower"},
	{"reply_wake_ns_p50", "ns", "lower"},
	{"run_len_mean", "req/run", "higher"},
	{"applybatch32_ns_per_req", "ns", "lower"},
}

// statDefs come from the public stats interfaces, for the constructions
// that implement them.
var statDefs = []metricDef{
	{"core.mpserver.submit_stalls_per_kop", "1/kop", "lower"},
	{"core.hybcomb.submit_stalls_per_kop", "1/kop", "lower"},
	{"shmsync.ccsynch.submit_stalls_per_kop", "1/kop", "lower"},
	{"spin.mcs-lock.lock_retries_per_op", "1/op", "lower"},
	{"core.hybrid.lock_retries_per_op", "1/op", "lower"},
	{"core.hybcomb.combine_rate", "op/round", "higher"},
	{"shmsync.ccsynch.combine_rate", "op/round", "higher"},
	{"core.hybrid.promotions", "count", "lower"},
	{"core.hybrid.demotions", "count", "lower"},
}

// probeDefs are the isolated probes and the process-level numbers.
var probeDefs = []metricDef{
	{"mpq.spsc_sendrecv_ns", "ns", "lower"},
	{"mpq.mpsc_sendrecv_ns", "ns", "lower"},
	{"mpq.mpsc_recvbatch32_ns_per_msg", "ns", "lower"},
	{"mpq.spsc_pingpong_ns", "ns", "lower"},
	{"mpq.ticketed_fifo_ns", "ns", "lower"},
	{"mpq.ticketed_reverse8_ns", "ns", "lower"},
	{"backoff.spin_step_ns", "ns", "lower"},
	{"backoff.yield_step_ns", "ns", "lower"},
	{"backoff.sleep_step_us", "us", "lower"},
	{"backoff.handoff_ns", "ns", "lower"},
	{"core.latch_dispatch_ns", "ns", "lower"},
	{"core.bare_dispatch_ns", "ns", "lower"},
	{"core.immediate_ticket_ns", "ns", "lower"},
	{"telemetry.sample_disarmed_ns", "ns", "lower"},
	{"telemetry.sample_armed_ns", "ns", "lower"},
	{"telemetry.latency_record_ns", "ns", "lower"},
	{"telemetry.armed_overhead_pct", "%", "lower"},
	{"spin.mcs_uncontended_ns", "ns", "lower"},
	{"spin.mcs_handoff_ns", "ns", "lower"},
	{"shard.route_ns", "ns", "lower"},
	{"shard.router_overhead_ns", "ns", "lower"},
	{"shard.get_ns_p50", "ns", "lower"},
	{"shard.put_ns_p50", "ns", "lower"},
	{"shard.getall16_ns_per_key_p50", "ns", "lower"},
	{"shard.multiput16_ns_per_key_p50", "ns", "lower"},
	{"shard.multiapply_allocs_per_call", "1/call", "lower"},
	{"shard.occupancy_max_over_min", "ratio", "lower"},
	{"harness.ref_mutex_mops", "Mops/s", "higher"},
	{"harness.localwork_ns", "ns", "lower"},
	{"harness.timer_pair_ns", "ns", "lower"},
	{"harness.trace_overhead_pct", "%", "lower"},
	{"proc.allocs_per_kop", "1/kop", "lower"},
	{"proc.gc_cycles", "count", "lower"},
}

// traced are the constructions of the traced pass: the measured five
// and shmserver.
func traced() []construction { return append(append([]construction(nil), measured...), tracedOnly) }

// perLayerDefs is every per-layer metric, in reporting order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, c := range traced() {
		for _, d := range perConstructionDefs {
			defs = append(defs, metricDef{c.layer + "." + d.name, d.unit, d.better})
		}
	}
	defs = append(defs, statDefs...)
	return append(defs, probeDefs...)
}

// perLayer is one workload's traced-pass result.
type perLayer struct {
	metrics   map[string]float64
	notes     []string
	attempted uint64
	failed    uint64
}

// runTraced is the per-layer pass for one workload: the isolated
// probes, then for each of the six constructions one round with tracing
// off (the reference the per-construction throughput, CPU and
// allocation numbers come from) and one round with the benchmark-side
// spans on. The gap between the two rounds is harness.trace_overhead_pct.
func runTraced(cfg config, workload string, in *inputs, p plan) (perLayer, error) {
	pl := perLayer{metrics: map[string]float64{}}
	for _, d := range perLayerDefs() {
		pl.metrics[d.name] = 0 // a metric the workload cannot measure reads 0
	}
	if err := runProbes(cfg.probes, cfg.seed, pl.metrics); err != nil {
		return pl, fmt.Errorf("probes: %w", err)
	}

	// One traced round gets the time the end-to-end pass gives one
	// executor: 4 segments (0.84 s at the contract's 25 s).
	tp := plan{rounds: 1, segments: p.segments, segment: p.segment, warmup: p.warmup}
	var (
		out               *os.File
		refMops, trcMops  []float64
		mallocs, ops, gcs uint64
	)
	if cfg.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
			return pl, err
		}
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return pl, err
		}
		defer f.Close()
		out = f
	}
	count := func(r roundResult) {
		pl.attempted += r.attempted
		pl.failed += r.failed
	}
	for _, c := range traced() {
		ref, _, err := runRound(func() (*system, error) {
			return build(workload, c.algo, in, 0, nil, nil)
		}, tp)
		if err != nil {
			return pl, fmt.Errorf("%s on %s: %w", workload, c.algo, err)
		}
		count(ref)
		rc := pool([]roundResult{ref})
		pl.metrics[c.layer+".mops"] = rc.mops
		pl.metrics[c.layer+".cpu_ns_per_op"] = rc.cpuNsPerOp
		refMops = append(refMops, rc.mops)
		for _, s := range ref.segs {
			ops += s.ops
		}
		mallocs += ref.mallocs
		gcs += uint64(ref.gcs)

		tr := newTracer(workload, tp)
		trc, sys, err := runRound(func() (*system, error) {
			return build(workload, c.algo, in, 0, tr.wrap, tr)
		}, tp)
		if err != nil {
			return pl, fmt.Errorf("%s on %s (traced): %w", workload, c.algo, err)
		}
		count(trc)
		trcMops = append(trcMops, pool([]roundResult{trc}).mops)
		spans := pl.spanMetrics(workload, c, tr)
		pl.statMetrics(c, sys, trc.attempted)
		if out != nil {
			if err := writeSpans(out, workload, c.layer, spans); err != nil {
				return pl, fmt.Errorf("writing %s: %w", cfg.traceOut, err)
			}
		}

		ns, failed, err := applyBatch32(cfg.probes, c.algo)
		if err != nil {
			return pl, fmt.Errorf("ApplyBatch on %s: %w", c.algo, err)
		}
		pl.metrics[c.layer+".applybatch32_ns_per_req"] = ns
		pl.failed += failed
	}
	if g := geomean(refMops); g > 0 {
		pl.metrics["harness.trace_overhead_pct"] = (1 - geomean(trcMops)/g) * 100
	}
	if ops > 0 {
		pl.metrics["proc.allocs_per_kop"] = float64(mallocs) / float64(ops) * 1e3
	}
	pl.metrics["proc.gc_cycles"] = float64(gcs)

	// Host-speed reference: the same loop over a sync.Mutex.
	ref, _, err := runRound(func() (*system, error) { return mutexSystem(workload, in), nil }, tp)
	if err != nil {
		return pl, err
	}
	count(ref)
	pl.metrics["harness.ref_mutex_mops"] = pool([]roundResult{ref}).mops

	return pl, pl.armedOverhead(in, tp, count)
}

// spanMetrics joins the round's spans and fills the construction's
// latency and run-length metrics from them.
func (pl *perLayer) spanMetrics(workload string, c construction, tr *tracer) []span {
	var (
		clients [][]half
		runs    uint64
		reqs    uint64
		dropped uint64
	)
	for _, ct := range tr.clients {
		clients = append(clients, ct.spans)
		dropped += ct.dropped
	}
	for _, o := range tr.objects() {
		runs += o.runs
		reqs += o.reqs
		dropped += o.dropped
	}
	if runs > 0 {
		pl.metrics[c.layer+".run_len_mean"] = float64(reqs) / float64(runs)
	}
	var spans []span
	opName := "op"
	if workload == wlSharded {
		// No id rides through the map: op spans by call kind with their
		// route child, and the service time of every 64th run per shard.
		spans = routedSpans(clients)
		opName = "op."
		var service []int64
		for _, o := range tr.shards {
			for _, h := range o.spans {
				service = append(service, h.end-h.start)
			}
		}
		pl.metrics[c.layer+".service_ns_p50"] = summarize(service).p50
	} else {
		j := join(clients, tr.dispatch.spans)
		spans = j.spans
		dropped += uint64(j.unmatched)
		pl.metrics[c.layer+".queue_wait_ns_p50"] = summarize(durations(spans, "queue_wait")).p50
		pl.metrics[c.layer+".service_ns_p50"] = summarize(durations(spans, "service")).p50
		pl.metrics[c.layer+".reply_wake_ns_p50"] = summarize(durations(spans, "reply_wake")).p50
	}
	var opDurs []int64
	for _, s := range spans {
		if strings.HasPrefix(s.name, opName) {
			opDurs = append(opDurs, s.dur())
		}
	}
	t := summarize(opDurs)
	pl.metrics[c.layer+".op_ns_p50"] = t.p50
	pl.metrics[c.layer+".op_ns_p99"] = t.high
	if t.highP != 99 {
		pl.notes = append(pl.notes, fmt.Sprintf("%s.op_ns_p99 is p%g: only %d samples, and a percentile needs ten beyond it", c.layer, t.highP, t.n))
	}
	pl.notes = append(pl.notes, fmt.Sprintf("%s: %d op spans, %d dropped or unmatched", c.layer, t.n, dropped))
	return spans
}

// statMetrics reads the public stats interfaces off the closed system.
// sharded-multi reaches them through the map, which aggregates only the
// pipeline and combining counters.
func (pl *perLayer) statMetrics(c construction, sys *system, ops uint64) {
	if ops == 0 {
		return
	}
	set := func(name string, v float64) {
		if _, reported := pl.metrics[c.layer+"."+name]; reported {
			pl.metrics[c.layer+"."+name] = v
		}
	}
	var (
		stalls, rounds uint64
		pipe, comb     bool
	)
	if sys.m != nil {
		stalls, _, pipe = sys.m.Pipeline()
		rounds, _, comb = sys.m.Stats()
	} else {
		if s, ok := sys.exec.(core.PipelineStats); ok {
			stalls, _ = s.Pipeline()
			pipe = true
		}
		if s, ok := sys.exec.(core.StatsSource); ok {
			rounds, _ = s.Stats()
			comb = true
		}
		if s, ok := sys.exec.(core.RetryStats); ok {
			set("lock_retries_per_op", float64(s.Retries())/float64(ops))
		}
		if s, ok := sys.exec.(core.AdaptiveStats); ok {
			p, d := s.Transitions()
			set("promotions", float64(p))
			set("demotions", float64(d))
		}
	}
	if pipe {
		set("submit_stalls_per_kop", float64(stalls)/float64(ops)*1e3)
	}
	if comb && rounds > 0 {
		set("combine_rate", float64(ops)/float64(rounds))
	}
}

// armedOverhead measures what arming telemetry costs the user-visible
// number it is most likely to move: mops_all on solo-apply, armed via
// WithTelemetry against disarmed, half-length rounds.
func (pl *perLayer) armedOverhead(in *inputs, tp plan, count func(roundResult)) error {
	tp.segments = (tp.segments + 1) / 2
	var off, on []float64
	for _, c := range measured {
		for _, armed := range []bool{false, true} {
			var opts []hybsync.Option
			if armed {
				opts = append(opts, hybsync.WithTelemetry(hybsync.NewTelemetry()))
			}
			r, _, err := runRound(func() (*system, error) {
				return build(wlSolo, c.algo, in, 0, nil, nil, opts...)
			}, tp)
			if err != nil {
				return fmt.Errorf("telemetry overhead on %s: %w", c.algo, err)
			}
			count(r)
			if m := pool([]roundResult{r}).mops; armed {
				on = append(on, m)
			} else {
				off = append(off, m)
			}
		}
	}
	if g := geomean(off); g > 0 {
		pl.metrics["telemetry.armed_overhead_pct"] = (1 - geomean(on)/g) * 100
	}
	return nil
}
