package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"hybsync/internal/benchfmt"
)

func rec(bench, algo string, threads, shards, depth, batch, gmp int, dist string) benchfmt.SweepRecord {
	return benchfmt.SweepRecord{
		Host: benchfmt.Host{GoMaxProcs: gmp},
		Record: benchfmt.Record{
			Bench: bench,
			Point: benchfmt.Point{Algo: algo, Threads: threads, Shards: shards, Dist: dist, Depth: depth, Batch: batch},
		},
	}
}

// writeRuns writes recs as one JSONL run file under the test's temp dir.
func writeRuns(t *testing.T, name string, recs []benchfmt.SweepRecord) string {
	t.Helper()
	path := t.TempDir() + "/" + name
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

// slowed returns r measured at ns/op scaled so throughput is frac of
// what ns gives: slowed(r, 100, 0.9) is "10 % slower".
func slowed(r benchfmt.SweepRecord, ns, frac float64) benchfmt.SweepRecord {
	r.Mops = 1e3 / ns * frac
	r.NsPerOp = 1e3 / r.Mops
	return r
}

func TestParseClauses(t *testing.T) {
	sel, err := parseClauses([]string{"depth>1", "algo=mpserver,hybcomb", " gomaxprocs = 2 ", "dist!=zipf:0.99"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 4 {
		t.Fatalf("got %d clauses", len(sel))
	}
	for _, bad := range []string{
		"depth", "depth>", "=1", "algo>mpserver", "bench<counter",
		// A misspelt field must not select nothing (=) or everything (!=).
		"treads!=4", "depht=4", "path=batch", "skip=x",
		"threads=two",
	} {
		if _, err := parseClauses([]string{bad}); err == nil {
			t.Errorf("clause %q accepted", bad)
		}
	}
}

func TestSelectorMatch(t *testing.T) {
	async := rec("async", "mpserver", 2, 1, 4, 1, 2, "uniform")
	batch := rec("batch", "hybcomb", 1, 1, 1, 32, 1, "uniform")
	sharded := rec("sharded", "ccsynch", 4, 2, 1, 1, 2, "zipf:0.99")

	cases := []struct {
		clauses []string
		r       benchfmt.SweepRecord
		want    bool
	}{
		{[]string{"depth>1"}, async, true},
		{[]string{"depth>1"}, batch, false},
		{[]string{"depth>1", "gomaxprocs=2"}, async, true},
		{[]string{"depth>1", "gomaxprocs=1"}, async, false},
		{[]string{"batch>1", "bench=batch"}, batch, true},
		{[]string{"algo=mpserver,hybcomb"}, batch, true},
		{[]string{"algo=mpserver,hybcomb"}, sharded, false},
		{[]string{"dist!=uniform"}, sharded, true},
		{[]string{"threads<=2"}, sharded, false},
		{[]string{"shards=2", "bench=sharded"}, sharded, true},
	}
	for _, tc := range cases {
		sel, err := parseClauses(tc.clauses)
		if err != nil {
			t.Fatalf("%v: %v", tc.clauses, err)
		}
		if got := sel.match(tc.r); got != tc.want {
			t.Errorf("match(%v, %s/%s) = %v, want %v", tc.clauses, tc.r.Bench, tc.r.Algo, got, tc.want)
		}
	}
}

func TestCompare(t *testing.T) {
	// Duplicate baseline samples gate at their median.
	baseline := map[string][]float64{"a": {100}, "b": {90, 100, 300}, "c": {100}}
	candidates := map[string][]float64{
		"a": {105, 90, 108},  // median 105, +5% — ok at 10%
		"b": {200, 115, 111}, // median 115, +15% — regressed
		// c missing
	}
	if !compare(baseline, candidates, 0.10) {
		t.Fatal("regression and missing point not flagged")
	}
	delete(baseline, "c")
	candidates["b"] = []float64{105, 90, 100}
	if compare(baseline, candidates, 0.10) {
		t.Fatal("clean candidates flagged")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}

func TestScenarioKeyPairsAcrossAlgos(t *testing.T) {
	lock := rec("phases", "mcs-lock", 1, 1, 1, 1, 2, "phase:5ms:0.5")
	hyb := rec("phases", "hybrid", 1, 1, 1, 1, 2, "phase:5ms:0.5")
	if scenarioKey(lock) != scenarioKey(hyb) {
		t.Fatalf("same scenario, different keys: %q vs %q", scenarioKey(lock), scenarioKey(hyb))
	}
	other := rec("phases", "hybrid", 2, 1, 1, 1, 2, "phase:5ms:0.5")
	if scenarioKey(lock) == scenarioKey(other) {
		t.Fatalf("different thread counts share key %q", scenarioKey(lock))
	}
}

func TestGuardVs(t *testing.T) {
	lock1 := rec("counter", "mcs-lock", 1, 1, 1, 1, 1, "uniform")
	lock4 := rec("counter", "mcs-lock", 4, 1, 1, 1, 1, "uniform")
	hyb1 := rec("counter", "hybrid", 1, 1, 1, 1, 1, "uniform")
	hyb4 := rec("counter", "hybrid", 4, 1, 1, 1, 1, "uniform")

	// hybrid within 10% of mcs-lock at t=1, way faster at t=4: passes.
	runs := writeRuns(t, "runs.jsonl", []benchfmt.SweepRecord{
		slowed(lock1, 100, 1), slowed(hyb1, 105, 1),
		slowed(lock4, 400, 1), slowed(hyb4, 120, 1),
	})
	failed, err := guard(runs, []string{runs}, nil, "hybrid=mcs-lock", 0.10)
	if err != nil || failed {
		t.Fatalf("clean -vs gate: failed=%v err=%v", failed, err)
	}

	// hybrid 30% behind at t=1: fails — unless -where excludes t=1.
	bad := writeRuns(t, "bad.jsonl", []benchfmt.SweepRecord{
		slowed(lock1, 100, 1), slowed(hyb1, 130, 1),
		slowed(lock4, 400, 1), slowed(hyb4, 120, 1),
	})
	failed, err = guard(bad, []string{bad}, nil, "hybrid=mcs-lock", 0.10)
	if err != nil || !failed {
		t.Fatalf("regressed -vs gate: failed=%v err=%v", failed, err)
	}
	failed, err = guard(bad, []string{bad}, whereFlags{"threads=4"}, "hybrid=mcs-lock", 0.10)
	if err != nil || failed {
		t.Fatalf("-where filtered -vs gate: failed=%v err=%v", failed, err)
	}

	if _, err := guard(runs, []string{runs}, nil, "hybrid", 0.10); err == nil {
		t.Fatal("bad -vs spec accepted")
	}
}

// ROADMAP direction A, exit test (iv): the two CI gates still bite.
// Against a corpus, a candidate with the hybrid's one-thread counter
// cell 10 % slower must fail both the apply-regression selection and
// the same-run hybrid-vs-lock gate, and one 5 % slower must pass both.
func TestInjectedSlowdownFailsBothGates(t *testing.T) {
	lock := rec("counter", "mcs-lock", 1, 1, 1, 1, 1, "uniform")
	hyb := rec("counter", "hybrid", 1, 1, 1, 1, 1, "uniform")
	srv2 := rec("counter", "mpserver", 2, 1, 1, 1, 1, "uniform") // outside the selection
	corpus := writeRuns(t, "corpus.jsonl", []benchfmt.SweepRecord{
		slowed(lock, 100, 1), slowed(hyb, 102, 1), slowed(srv2, 800, 1),
	})
	apply := whereFlags{"bench=counter", "threads=1"}
	for _, tc := range []struct {
		frac float64
		fail bool
	}{{0.90, true}, {0.95, false}, {1, false}} {
		run := writeRuns(t, "run.jsonl", []benchfmt.SweepRecord{
			slowed(lock, 100, 1), slowed(hyb, 102, tc.frac), slowed(srv2, 800, 0.5),
		})
		runs := []string{run, run, run}
		failed, err := guard(corpus, runs, apply, "", 0.10)
		if err != nil || failed != tc.fail {
			t.Errorf("apply-regression gate at %.2f× throughput: failed=%v err=%v, want failed=%v", tc.frac, failed, err, tc.fail)
		}
		failed, err = guard(run, runs, whereFlags{"threads=1"}, "hybrid=mcs-lock", 0.10)
		if err != nil || failed != tc.fail {
			t.Errorf("-vs hybrid=mcs-lock gate at %.2f× throughput: failed=%v err=%v, want failed=%v", tc.frac, failed, err, tc.fail)
		}
	}
}

func TestCellKeyDistinguishesScenarios(t *testing.T) {
	a := rec("batch", "hybcomb", 1, 1, 1, 32, 1, "uniform")
	variants := []benchfmt.SweepRecord{
		rec("batch", "hybcomb", 1, 1, 1, 8, 1, "uniform"),
		rec("batch", "hybcomb", 2, 1, 1, 32, 1, "uniform"),
		rec("batch", "hybcomb", 1, 1, 1, 32, 2, "uniform"),
		rec("batch", "mpserver", 1, 1, 1, 32, 1, "uniform"),
	}
	for _, v := range variants {
		if cellKey(a) == cellKey(v) {
			t.Errorf("cell keys collide: %q", cellKey(a))
		}
	}
}

// parentCellKey is cellKey as the commit before the Point refactor
// spelt it, axis by axis.
func parentCellKey(r benchfmt.SweepRecord) string {
	return fmt.Sprintf("%s %s t=%d s=%d %s d=%d b=%d gmp=%d",
		r.Algo, r.Bench, r.Threads, r.Shards, r.Dist, r.Depth, r.Batch, r.GoMaxProcs)
}

// Every committed corpus line keys as before: the table-derived cell
// and scenario keys group the corpus into exactly the classes the
// hand-written keys did.
func TestCorpusKeysAsBefore(t *testing.T) {
	f, err := os.Open("../../BENCH_sweep.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := benchfmt.ReadSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []struct {
		name     string
		now, was func(benchfmt.SweepRecord) string
	}{
		{"cell", cellKey, parentCellKey},
		{"scenario", scenarioKey, func(r benchfmt.SweepRecord) string { r.Algo = ""; return parentCellKey(r) }},
	} {
		nowOf, wasOf := map[string]string{}, map[string]string{}
		for _, r := range recs {
			now, was := key.now(r), key.was(r)
			if prev, ok := wasOf[now]; ok && prev != was {
				t.Fatalf("%s key %q merges %q and %q", key.name, now, prev, was)
			}
			if prev, ok := nowOf[was]; ok && prev != now {
				t.Fatalf("%s key splits %q into %q and %q", key.name, was, prev, now)
			}
			wasOf[now], nowOf[was] = was, now
		}
		if want := map[string]int{"cell": 2496, "scenario": 416}[key.name]; len(wasOf) != want {
			t.Errorf("%d distinct %s keys, want %d", len(wasOf), key.name, want)
		}
	}
}

// An accepted clause list names known fields only and matches the same
// way every time; a field -where does not know is always an error.
func FuzzWhere(f *testing.F) {
	for _, seed := range []string{
		"bench=counter", "threads=1", "gomaxprocs=1", "algo=mpserver,hybcomb", "threads=2",
		"bench=async", "depth=4", "batch=8", "shards=4", "gomaxprocs=2", "bench=counter,phases",
		"depth>1", " gomaxprocs = 2 ", "dist!=zipf:0.99", "threads<=2", "cell>=0", "numcpu<3",
		"treads!=4", "algo>mpserver", "threads=two", "depth", "=1",
	} {
		f.Add(seed, "threads=1", "treads")
	}
	lines := []benchfmt.SweepRecord{
		rec("async", "mpserver", 2, 1, 4, 1, 2, "uniform"),
		rec("sharded", "ccsynch", 4, 4, 1, 8, 1, "zipf:0.99"),
		rec("phases", "hybrid", 1, 1, 1, 1, 2, "phase:5ms:0.5"),
	}
	f.Fuzz(func(t *testing.T, a, b, name string) {
		if _, known := fields[strings.TrimSpace(name)]; !known && !strings.ContainsAny(name, "<>=!") {
			for _, op := range clauseOps {
				if _, err := parseClauses([]string{name + op + "1"}); err == nil {
					t.Fatalf("unknown field %q accepted under %s", name, op)
				}
			}
		}
		sel, err := parseClauses([]string{a, b})
		if err != nil {
			return
		}
		again, err := parseClauses([]string{a, b})
		if err != nil || !reflect.DeepEqual(sel, again) {
			t.Fatalf("second parse of [%q %q]: %v, %v (first %v)", a, b, again, err, sel)
		}
		for _, c := range sel {
			if _, known := fields[c.field]; !known {
				t.Fatalf("clause %+v names an unknown field", c)
			}
		}
		for _, r := range lines {
			if first, second := sel.match(r), sel.match(r); first != second || first != again.match(r) {
				t.Fatalf("[%q %q] does not match %+v deterministically", a, b, r)
			}
		}
	})
}
