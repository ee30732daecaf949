package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"hybsync/internal/core"
)

// smokePlan is the driver at its smallest: one round of one 50 ms
// segment per construction.
var smokePlan = plan{rounds: 1, segments: 1, segment: 50 * time.Millisecond, warmup: 10 * time.Millisecond, ref: 10 * time.Millisecond}

// lastJSON decodes the final line run printed.
func lastJSON(t *testing.T, out *bytes.Buffer, v any) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), v); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
}

// TestSmoke drives every workload over every construction (shmserver
// included) with the oracles on, then one traced pass, so that plain
// `go test ./...` and CI's race step exercise the whole driver.
func TestSmoke(t *testing.T) {
	for _, w := range workloadNames {
		in, err := newInputs(3, w)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range traced() {
			res, _, err := runRound(func() (*system, error) { return build(w, c.algo, in, 0, nil, nil) }, smokePlan)
			if err != nil {
				t.Fatalf("%s on %s: %v", w, c.algo, err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Errorf("%s on %s: %d failed of %d attempted", w, c.algo, res.failed, res.attempted)
			}
		}
	}

	var out bytes.Buffer
	cfg := config{
		workload: wlWindow, seed: 3, seconds: 1, trace: true, plan: &smokePlan,
		traceOut: t.TempDir() + "/trace.jsonl", probes: probeScale{calls: 2000, repeats: 1},
	}
	if code := run(cfg, &out); code != 0 {
		t.Fatalf("traced pass exited %d\n%s", code, out.String())
	}
	var res result
	lastJSON(t, &out, &res)
	for _, d := range perLayerDefs() {
		if _, ok := res.Metrics[d.name]; !ok {
			t.Errorf("traced pass did not report %s", d.name)
		}
	}
	if len(res.Metrics) != len(perLayerDefs()) {
		t.Errorf("traced pass reported %d metrics, want %d", len(res.Metrics), len(perLayerDefs()))
	}
	spans, err := os.ReadFile(cfg.traceOut)
	if err != nil || !bytes.Contains(spans, []byte(`"name":"queue_wait"`)) {
		t.Errorf("span file missing or without queue_wait spans (err %v)", err)
	}
}

// dropOne loses the nth increment it is handed: the request returns the
// counter's current value without advancing it.
type dropOne struct {
	inner core.Object
	seen  int
	nth   int
}

func (d *dropOne) DispatchBatch(reqs []core.Req, results []uint64) {
	for i := range reqs {
		if d.seen++; d.seen == d.nth {
			results[i] = d.inner.(*counter).v
			continue
		}
		d.inner.DispatchBatch(reqs[i:i+1], results[i:i+1])
	}
}

// TestOracleCatchesDroppedIncrement: one lost increment in one round
// must show as a non-zero failed count and a non-zero exit.
func TestOracleCatchesDroppedIncrement(t *testing.T) {
	var out bytes.Buffer
	cfg := config{
		workload: wlSolo, seed: 1, seconds: 1, plan: &smokePlan,
		wrap: func(obj core.Object) core.Object { return &dropOne{inner: obj, nth: 100} },
	}
	if code := run(cfg, &out); code == 0 {
		t.Errorf("exit code 0 with a dropped increment\n%s", out.String())
	}
	var res result
	lastJSON(t, &out, &res)
	if res.Correct || res.Failed == 0 || res.Attempted == 0 {
		t.Errorf("correct=%v failed=%d attempted=%d, want a non-zero failed ratio", res.Correct, res.Failed, res.Attempted)
	}
}

// TestSeedFixesInputs: the seed, and nothing else, decides the
// generated operations.
func TestSeedFixesInputs(t *testing.T) {
	const n = 100_000
	for _, w := range workloadNames {
		hash := func(seed uint64, client int) uint64 {
			in, err := newInputs(seed, w)
			if err != nil {
				t.Fatal(err)
			}
			g := in.gen(w, client, 0)
			return streamHash(&g, n)
		}
		for c := 0; c < clientsOf(w); c++ {
			if a, b := hash(7, c), hash(7, c); a != b {
				t.Errorf("%s client %d: seed 7 gave %#x then %#x", w, c, a, b)
			}
			if a, b := hash(7, c), hash(8, c); a == b {
				t.Errorf("%s client %d: seeds 7 and 8 gave the same stream %#x", w, c, a)
			}
		}
		if clientsOf(w) > 1 && hash(7, 0) == hash(7, 1) {
			t.Errorf("%s: clients 0 and 1 share a stream", w)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "op", start: 100, end: 200, parent: -1},
		{name: "a", start: 100, end: 130, parent: 0},
		{name: "b", start: 120, end: 150, parent: 0}, // overlaps a by 10
		{name: "c", start: 190, end: 260, parent: 0}, // sticks out of the parent by 60
		{name: "leaf", start: 125, end: 128, parent: 2},
		{name: "lonely", start: 0, end: 40, parent: -1},
	}
	// op: 100 long, children cover [100,150) and [190,200) = 60.
	want := []int64{40, 30, 27, 70, 3, 40}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got, want[i])
		}
	}
}

func TestJoinDropsAndCountsUnmatchedHalves(t *testing.T) {
	clients := [][]half{
		{{id: 1, start: 10, end: 100}, {id: 2, start: 110, end: 200}}, // 2 never dispatched
		{{id: 3, start: 20, end: 90}},
	}
	dispatch := []half{
		{id: 1, start: 30, end: 40, runLen: 2},
		{id: 3, start: 30, end: 40, runLen: 2},
		{id: 9, start: 50, end: 60, runLen: 1}, // its client half was dropped
	}
	j := join(clients, dispatch)
	if j.unmatched != 2 {
		t.Errorf("unmatched = %d, want 2", j.unmatched)
	}
	if len(j.spans) != 8 {
		t.Fatalf("%d spans, want 2 ops × 4", len(j.spans))
	}
	op, qw, sv, rw := j.spans[0], j.spans[1], j.spans[2], j.spans[3]
	if op.name != "op" || op.dur() != 90 || qw.dur() != 20 || sv.dur() != 10 || rw.dur() != 60 || sv.runLen != 2 {
		t.Errorf("op 1 split as %d = %d + %d + %d (run %d), want 90 = 20 + 10 + 60 (run 2)", op.dur(), qw.dur(), sv.dur(), rw.dur(), sv.runLen)
	}
	for i, self := range selfTimes(j.spans) {
		if j.spans[i].name == "op" && self != 0 {
			t.Errorf("op %d has self time %d: its children must tile it", j.spans[i].op, self)
		}
	}
}

func TestPercentilePickerNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {1000000, 99},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	durs := make([]int64, 1000)
	for i := range durs {
		durs[i] = int64(i + 1)
	}
	if s := summarize(durs); s.highP != 99 || s.high != 990 || s.p50 != 500 {
		t.Errorf("1000 samples: p%g = %g, p50 = %g; want p99 = 990, p50 = 500", s.highP, s.high, s.p50)
	}
	if s := summarize(durs[:500]); s.highP != 90 || s.high != 450 {
		t.Errorf("500 samples: p%g = %g; want p90 = 450 (p99 would have only 5 beyond)", s.highP, s.high)
	}
}

func saved(workload string, mops, setup float64, failed uint64) string {
	b, _ := json.Marshal(savedResult{Workload: workload, Result: result{
		Correct: failed == 0, Attempted: 1000, Failed: failed,
		Metrics: map[string]metric{"mops_all": {mops, "Mops/s"}, "setup_s": {setup, "s"}},
	}})
	return string(b) + "\n"
}

func TestCompareSets(t *testing.T) {
	spec := benchSpec{EndToEnd: []boundedMetric{
		{Name: "mops_all", Better: "higher", Bound: 0.10},
		{Name: "setup_s", Better: "lower", Bound: 0.25},
	}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	load := func(s string) runSet {
		set, err := loadSet(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return set
	}
	first := load("host: a table line to skip\n" + saved("w", 9, 0.010, 0) + saved("w", 10, 0.010, 0) + saved("w", 11, 0.010, 0))
	breaches := func(second runSet) (names []string) {
		for _, r := range compareSets(spec, first, second) {
			if r.breach {
				names = append(names, r.metric)
			}
		}
		return names
	}
	for _, c := range []struct {
		name   string
		second string
		want   string
	}{
		{"within bounds", saved("w", 9.2, 0.012, 0), ""},
		{"better is never a breach", saved("w", 20, 0.001, 0), ""},
		{"throughput down 15%", saved("w", 8.5, 0.010, 0), "mops_all"},
		{"set-up up 30%", saved("w", 10, 0.013, 0), "setup_s"},
		{"any new failure", saved("w", 10, 0.010, 1), "failed_ops_ratio"},
		{"missing workload", saved("other", 10, 0.010, 0), "mops_all setup_s"},
	} {
		if got := strings.Join(breaches(load(c.second)), " "); got != c.want {
			t.Errorf("%s: breaches %q, want %q", c.name, got, c.want)
		}
	}
	var table bytes.Buffer
	printRows(&table, compareSets(spec, first, load(saved("w", 8.5, 0.010, 0))))
	if !strings.Contains(table.String(), "BREACH") {
		t.Errorf("table does not flag the breach:\n%s", table.String())
	}
}

// TestBenchmarkJSONMatchesTheCode keeps BENCHMARK.json and the metrics
// the code prints from drifting apart.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if i < len(workloadNames) && w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in the code", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	defs := perLayerDefs()
	if len(defs) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(defs))
	}
	if len(spec.PerLayer) != len(defs) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(spec.PerLayer), len(defs))
	}
	for i, d := range defs {
		if m := spec.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the code %+v", i, m, d)
		}
	}
	p := planFor(float64(spec.RunSeconds))
	if int(p.segment/time.Millisecond) != 210 || int(p.ref/time.Millisecond) != 153 {
		t.Errorf("run_seconds %d gives %v segments and %v reference readings, not the 210 ms and 153 ms the plan documents", spec.RunSeconds, p.segment, p.ref)
	}
	measures := time.Duration(len(measured)*p.rounds*p.segments)*p.segment + time.Duration(len(measured)*p.rounds+1)*p.ref
	if d := measures - time.Duration(spec.RunSeconds)*time.Second; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("the plan measures for %v, run_seconds is %d", measures, spec.RunSeconds)
	}
}
