package simalgo

import (
	"reflect"
	"strings"
	"testing"

	"hybsync/internal/tilesim"
)

func counterCell(algo string, threads, maxOps int) Cell {
	return Cell{Algo: algo, Object: "counter", Threads: threads, MaxOps: maxOps}
}

// simulateOnce runs c once (seed 1), keeping the engine for inspection.
func simulateOnce(t *testing.T, c Cell, horizon uint64) *simulation {
	t.Helper()
	p, err := resolve(c)
	if err != nil {
		t.Fatal(err)
	}
	return simulate(p, horizon, 1)
}

// run measures c once through a fresh Lab.
func run(t *testing.T, c Cell, horizon uint64) Result {
	t.Helper()
	res, err := (&Lab{Horizon: horizon, Runs: 1}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkConserved: the final counter value equals the number of completed
// increments. Increments are never lost or duplicated, which for a
// counter is exactly mutual exclusion of the read-modify-write CS.
func checkConserved(t *testing.T, s *simulation) {
	t.Helper()
	if s.Ops == 0 {
		t.Fatalf("%+v: no ops completed", s.Cell)
	}
	if final := s.obj.(*Counter).Value(s.engine); final != s.Ops {
		t.Errorf("%+v: counter=%d but ops=%d (lost/duplicated increments)", s.Cell, final, s.Ops)
	}
	if err := s.engine.CheckCoherence(); err != nil {
		t.Errorf("%+v: %v", s.Cell, err)
	}
}

// TestCounterLinearizable checks conservation for every registered
// construction that runs a counter, so one registered later is covered
// without editing this file.
func TestCounterLinearizable(t *testing.T) {
	for _, algo := range Constructions("counter") {
		for _, threads := range []int{1, 2, 7, 16, 35} {
			checkConserved(t, simulateOnce(t, counterCell(algo, threads, 200), 60_000))
		}
	}
}

// TestCounterFairness: the paper's approaches and the lock baseline keep
// the max/min per-thread op ratio low (§5.3). The ablation variants make
// no such claim.
func TestCounterFairness(t *testing.T) {
	for _, algo := range []string{"mp-server", "shm-server", "CC-Synch", "HybComb", "mcs-lock"} {
		if f := run(t, counterCell(algo, 16, 200), 120_000).Fairness(); f == 0 || f > 2.0 {
			t.Errorf("%s: fairness ratio %.2f out of expected range (0,2]", algo, f)
		}
	}
}

func TestHybCombCombiningStats(t *testing.T) {
	res := run(t, counterCell("HybComb", 24, 200), 150_000)
	if res.Rounds == 0 {
		t.Fatal("no combining rounds recorded")
	}
	if res.CombiningRate() < 2 {
		t.Errorf("combining rate %.1f too low under 24 threads", res.CombiningRate())
	}
	// §5.3: CAS per operation stays well below 1 in multithreaded runs.
	if casPerOp := float64(res.CASAttempts) / float64(res.Ops); casPerOp > 1.0 {
		t.Errorf("CAS per op = %.2f, expected < 1", casPerOp)
	}
}

func TestMPServerFasterThanSHMServer(t *testing.T) {
	mp := run(t, counterCell("mp-server", 30, 0), 120_000)
	shm := run(t, counterCell("shm-server", 30, 0), 120_000)
	if mp.Mops() <= shm.Mops() {
		t.Errorf("mp-server %.1f Mops <= shm-server %.1f Mops; paper expects ~4x advantage",
			mp.Mops(), shm.Mops())
	}
}

func TestHybCombFasterThanCCSynch(t *testing.T) {
	hy := run(t, counterCell("HybComb", 30, 200), 120_000)
	cc := run(t, counterCell("CC-Synch", 30, 200), 120_000)
	if hy.Mops() <= cc.Mops() {
		t.Errorf("HybComb %.1f Mops <= CC-Synch %.1f Mops; paper expects ~2.5x advantage",
			hy.Mops(), cc.Mops())
	}
}

// TestServerStallsVsMessagePassing is the Figure 4a shape check: the
// shared-memory servicing threads stall for a large fraction of their
// cycles, while the message-passing server's stalls are near zero.
func TestServerStallsVsMessagePassing(t *testing.T) {
	mp := run(t, counterCell("mp-server", 30, 0), 120_000)
	shm := run(t, counterCell("shm-server", 30, 0), 120_000)

	mpStallFrac := float64(mp.ServiceStall) / float64(mp.ServiceBusy)
	shmStallFrac := float64(shm.ServiceStall) / float64(shm.ServiceBusy)
	if mpStallFrac > 0.05 {
		t.Errorf("mp-server stall fraction %.2f, expected ~0", mpStallFrac)
	}
	if shmStallFrac < 0.3 {
		t.Errorf("shm-server stall fraction %.2f, expected > 0.3 (paper: >50%%)", shmStallFrac)
	}
}

// TestMCSLockSlowerThanCombining quantifies the §3 locality argument:
// under a queue lock the counter's line migrates to every acquiring
// core, so even the slowest CS-migration approach beats it at high
// concurrency.
func TestMCSLockSlowerThanCombining(t *testing.T) {
	mcs := run(t, counterCell("mcs-lock", 30, 0), 120_000)
	cc := run(t, counterCell("CC-Synch", 30, 200), 120_000)
	if mcs.Mops() >= cc.Mops() {
		t.Errorf("mcs-lock %.1f Mops >= CC-Synch %.1f Mops; §3 expects locks to lose", mcs.Mops(), cc.Mops())
	}
}

// TestLatencyPercentiles checks the recording path and the §5.3 hiccup
// claim: HybComb's p99/max far exceeds its median under high MAX_OPS,
// while MP-SERVER's distribution is tight.
func TestLatencyPercentiles(t *testing.T) {
	hyCell, mpCell := counterCell("HybComb", 25, 5000), counterCell("mp-server", 25, 0)
	hyCell.RecordLatencies, mpCell.RecordLatencies = true, true
	hy, mp := run(t, hyCell, 150_000), run(t, mpCell, 150_000)
	if len(hy.Latencies) == 0 || uint64(len(hy.Latencies)) != hy.Ops {
		t.Fatalf("latency recording: %d entries for %d ops", len(hy.Latencies), hy.Ops)
	}
	if p0, p100 := hy.LatencyPercentile(0), hy.LatencyPercentile(1); p0 > p100 {
		t.Fatalf("percentiles not monotone: p0=%d p100=%d", p0, p100)
	}
	hyTail := float64(hy.LatencyPercentile(1)) / float64(hy.LatencyPercentile(0.5))
	mpTail := float64(mp.LatencyPercentile(1)) / float64(mp.LatencyPercentile(0.5))
	if hyTail <= mpTail {
		t.Errorf("HybComb tail ratio %.1f <= mp-server %.1f; expected combiner hiccups", hyTail, mpTail)
	}
}

// TestOversubscribedWorkload runs the §6 scenario: more application
// threads than cores, sharing cores through the multiplexed message
// queues. Correctness (no lost increments) must be unaffected.
func TestOversubscribedWorkload(t *testing.T) {
	for _, algo := range []string{"mp-server", "HybComb"} {
		c := counterCell(algo, 40, 200)
		c.ProcsPerCore = 2
		checkConserved(t, simulateOnce(t, c, 60_000))
	}
}

// TestAblationVariantsLinearizable: the registry's SWAP-registration and
// no-eager-drain names must still be mutually exclusive, and must really
// select the variant — both shrink the combining potential (§4.2).
func TestAblationVariantsLinearizable(t *testing.T) {
	base := run(t, counterCell("HybComb", 20, 200), 80_000)
	for _, algo := range []string{"HybComb-SWAP", "HybComb-NoDrain"} {
		s := simulateOnce(t, counterCell(algo, 20, 200), 80_000)
		checkConserved(t, s)
		if s.CombiningRate() >= base.CombiningRate() {
			t.Errorf("%s combines %.1f requests/round, HybComb %.1f: the variant is not in effect",
				algo, s.CombiningRate(), base.CombiningRate())
		}
	}
}

// TestX86ProfileCounterRuns exercises the §5.5 profile end to end.
func TestX86ProfileCounterRuns(t *testing.T) {
	for _, algo := range []string{"shm-server", "CC-Synch", "mcs-lock"} {
		c := counterCell(algo, tilesim.ProfileX86Like().NumCores()-1, 200)
		c.Profile = "x86"
		checkConserved(t, simulateOnce(t, c, 60_000))
	}
}

// TestCellKeysTheMemo pins what the Lab's memo relies on: a Cell is a
// map key, cells that simulate the same thing are one key, and two runs
// of one cell return equal Results.
func TestCellKeysTheMemo(t *testing.T) {
	lab := &Lab{Horizon: 20_000, Runs: 2}
	a := run(t, counterCell("mp-server", 7, 0), 20_000)
	for _, c := range []Cell{
		counterCell("mp-server", 7, 0),
		counterCell("mp-server", 7, 200), // MAX_OPS means nothing to a server
		{Algo: "mp-server", Object: "counter", Threads: 7, Profile: "tilegx", ProcsPerCore: 1},
	} {
		if _, err := lab.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	if len(lab.memo) != 1 || lab.sims != 2 {
		t.Errorf("three spellings of one cell: %d memo entries, %d simulations; want 1 and 2", len(lab.memo), lab.sims)
	}
	if b := run(t, counterCell("mp-server", 7, 0), 20_000); !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of one cell differ:\n%+v\n%+v", a, b)
	}
	if hy := run(t, counterCell("HybComb", 7, 10), 20_000); reflect.DeepEqual(hy, run(t, counterCell("HybComb", 7, 200), 20_000)) {
		t.Error("MAX_OPS is part of a combining cell's identity, yet 10 and 200 gave equal results")
	}
}

// TestFiguresSimulateEachCellOnce is the memo at work: 3b plots the
// latency of the very runs 3a plots the throughput of, and over the
// whole list every distinct cell is simulated exactly once.
func TestFiguresSimulateEachCellOnce(t *testing.T) {
	lab := &Lab{Horizon: 2_000, Runs: 2}
	figs := Figures(lab, 200)
	render := func(f Figure) {
		for _, x := range f.X {
			if _, err := f.Row(lab, x); err != nil {
				t.Fatal(err)
			}
		}
	}
	render(figs[0])
	render(figs[1])
	if figs[0].Name != "3a" || figs[1].Name != "3b" || lab.sims != 52*lab.Runs {
		t.Fatalf("%s then %s ran %d simulations, want %d", figs[0].Name, figs[1].Name, lab.sims, 52*lab.Runs)
	}
	want, points := 0, 0
	distinct := map[Cell]bool{}
	for _, f := range figs {
		render(f)
		for _, col := range f.Cols {
			for _, x := range f.X {
				p, err := resolve(col.Cell(x))
				if err != nil {
					t.Fatal(err)
				}
				points++
				if distinct[p.Cell] {
					continue
				}
				distinct[p.Cell] = true
				if p.RecordLatencies {
					want++ // one run, whatever Runs says
				} else {
					want += lab.Runs
				}
			}
		}
	}
	if lab.sims != want || len(lab.memo) != len(distinct) {
		t.Errorf("all figures: %d simulations of %d memoised cells, want %d of %d", lab.sims, len(lab.memo), want, len(distinct))
	}
	t.Logf("%d table entries over %d distinct cells", points, len(distinct))
}

// TestBadCellsAreErrors: a cell that names nothing registered, pairs a
// construction with an object it is not, or does not fit the chip is
// refused before anything is simulated.
func TestBadCellsAreErrors(t *testing.T) {
	lab := &Lab{Horizon: 1_000, Runs: 1}
	for _, tc := range []struct {
		c    Cell
		want string
	}{
		{counterCell("hybcomb", 4, 200), "unknown construction"},
		{Cell{Algo: "HybComb", Object: "deque", Threads: 4, MaxOps: 200}, "unknown object"},
		{Cell{Algo: "mp-server", Object: "counter", Threads: 4, Profile: "arm"}, "unknown profile"},
		{counterCell("LCRQ", 4, 0), "LCRQ is a queue"},
		{counterCell("CC-Synch", 4, 0), "MaxOps"},
		{counterCell("mp-server", 0, 0), "do not fit"},
		{counterCell("mp-server", 36, 0), "do not fit"},
		{Cell{Algo: "mp-server-2", Object: "queue", Threads: 35}, "do not fit"},
		{Cell{Algo: "mp-server", Object: "counter", Threads: 4, ProcsPerCore: 5}, "hardware queues"},
	} {
		if _, err := lab.Run(tc.c); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: error %v, want one mentioning %q", tc.c, err, tc.want)
		}
	}
	for _, bad := range []*Lab{{Horizon: 0, Runs: 1}, {Horizon: 1_000, Runs: 0}} {
		if _, err := bad.Run(counterCell("mp-server", 4, 0)); err == nil {
			t.Errorf("Lab{Horizon: %d, Runs: %d} ran a cell", bad.Horizon, bad.Runs)
		}
	}
	if lab.sims != 0 {
		t.Errorf("%d simulations ran for refused cells", lab.sims)
	}
}

// TestArrayCounterObject checks the Figure 4c object applies exactly
// `arg` increments per op.
func TestArrayCounterObject(t *testing.T) {
	e := tilesim.NewEngine(tilesim.ProfileTileGx())
	a := NewArrayCounter(e, 8)
	e.Spawn("t", 0, func(p *tilesim.Proc) {
		a.Exec(p, OpIncN, 3)
		a.Exec(p, OpIncN, 100) // clamped to 8
	})
	e.Run(0)
	for i := 0; i < 8; i++ {
		want := uint64(1)
		if i < 3 {
			want = 2
		}
		if got := e.Peek(a.base + tilesim.Addr(i)); got != want {
			t.Fatalf("cell %d = %d, want %d", i, got, want)
		}
	}
}

// TestEncodeDecodeVal round-trips the workload value packing.
func TestEncodeDecodeVal(t *testing.T) {
	for th := 0; th < 36; th++ {
		for _, seq := range []uint64{0, 1, 12345, 1<<26 - 1} {
			gt, gs := DecodeVal(EncodeVal(th, seq))
			if gt != th || gs != seq {
				t.Fatalf("round trip (%d,%d) -> (%d,%d)", th, seq, gt, gs)
			}
		}
	}
}
