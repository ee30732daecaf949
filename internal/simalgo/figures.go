package simalgo

import (
	"fmt"
	"strconv"
)

// Figure is one table of the paper's evaluation: a row per x value, and
// per column the cell to run for that x and the metric to read from its
// Result. Figures is the only list of them; cmd/tilebench renders it,
// BenchmarkSimFigure reports it and the golden test pins it.
type Figure struct {
	Name   string // tilebench's -fig value
	Title  string
	Note   string
	XLabel string
	X      []int
	XNames []string // row labels where the rows are not numbers; X indexes it
	Cols   []Column
}

// Column is one series of a Figure.
type Column struct {
	Label  string
	Cell   func(x int) Cell
	Metric func(Result) float64
	Int    bool // the metric is a whole number (cycles), printed as one
}

// RowLabel is the first cell of x's row.
func (f Figure) RowLabel(x int) string {
	if f.XNames != nil {
		return f.XNames[x]
	}
	return strconv.Itoa(x)
}

// Row runs x's cells on l and returns the row's metrics, one per column.
func (f Figure) Row(l *Lab, x int) ([]float64, error) {
	vals := make([]float64, len(f.Cols))
	for i, col := range f.Cols {
		r, err := l.Run(col.Cell(x))
		if err != nil {
			return nil, fmt.Errorf("figure %s, column %q, row %s: %w", f.Name, col.Label, f.RowLabel(x), err)
		}
		vals[i] = col.Metric(r)
	}
	return vals, nil
}

// threadSweep is the x-axis of the thread-count figures. The TILE-Gx8036
// has 36 cores; with one core dedicated to a server, at most 35
// application threads fit (the paper's x-axis).
var threadSweep = []int{1, 2, 3, 5, 7, 10, 14, 17, 20, 24, 28, 31, 35}

// The four §5.3 approaches, in the paper's column order.
var approaches = []string{"mp-server", "HybComb", "shm-server", "CC-Synch"}

func perOp(total func(Result) uint64) func(Result) float64 {
	return func(r Result) float64 { return float64(total(r)) / float64(r.Ops) }
}

var (
	cyclesPerOp  = perOp(func(r Result) uint64 { return r.Cycles }) // at saturation: inverse throughput
	stallPerOp   = perOp(func(r Result) uint64 { return r.ServiceStall })
	busyPerOp    = perOp(func(r Result) uint64 { return r.ServiceBusy })
	casPerOp     = perOp(func(r Result) uint64 { return r.CASAttempts })
	casFailPerOp = perOp(func(r Result) uint64 { return r.CASFailures })
)

func percentile(q float64) func(Result) float64 {
	return func(r Result) float64 { return float64(r.LatencyPercentile(q)) }
}

// idealCS is Figure 4c's reference: the CS body alone on a warm cache,
// a read and a write hit per array cell.
func idealCS(r Result) float64 {
	return float64(r.Cell.CSLen) * 2 * float64(profiles[r.Cell.Profile]().L1Hit)
}

// Figures lists the paper's figures (§5, Figs. 3a-5b), the §5.3 and
// §5.5 text measurements, the §4.2 ablations and two supplementary
// tables, in tilebench's output order. maxOps is MAX_OPS wherever a
// figure neither sweeps nor fixes it; l's horizon and run count appear
// in a note.
func Figures(l *Lab, maxOps int) []Figure {
	// at is algo over object at full concurrency; a column sweeps one
	// field of such a cell over the figure's x values.
	at := func(algo, object string) Cell {
		return Cell{Algo: algo, Object: object, Threads: 35, MaxOps: maxOps}
	}
	threads := func(c Cell) func(int) Cell { return func(x int) Cell { c.Threads = x; return c } }
	maxops := func(c Cell) func(int) Cell { return func(x int) Cell { c.MaxOps = x; return c } }
	cslen := func(c Cell) func(int) Cell { return func(x int) Cell { c.CSLen = uint64(x); return c } }
	by := func(object string) func(string) func(int) Cell {
		return func(algo string) func(int) Cell { return threads(at(algo, object)) }
	}
	counter := by("counter")
	array := func(algo string) func(int) Cell { return cslen(at(algo, "array")) }
	x86 := func(algo string) func(int) Cell {
		c := at(algo, "counter")
		c.Profile = "x86"
		return threads(c)
	}
	// full is a counter cell at full concurrency with its own MAX_OPS.
	full := func(algo string, maxOps int) Cell { return maxops(at(algo, "counter"))(maxOps) }
	// series is one column per algo with the same kind of cell and metric.
	series := func(cell func(algo string) func(int) Cell, suffix string, metric func(Result) float64, algos ...string) []Column {
		cols := make([]Column, len(algos))
		for i, a := range algos {
			cols[i] = Column{Label: a + suffix, Cell: cell(a), Metric: metric}
		}
		return cols
	}
	fixed := func(cells []Cell) func(int) Cell { return func(i int) Cell { return cells[i] } }

	// Figure 4a: as in the paper (footnote 4), the combining algorithms
	// run with a fixed combiner (MAX_OPS=infinity) so a single core's
	// counters capture the servicing work.
	const inf = 1 << 30 // never reached within a run; fits int on 32-bit targets
	servicing := fixed([]Cell{full("mp-server", 0), full("HybComb", inf), full("shm-server", 0), full("CC-Synch", inf)})

	tailNames := []string{"mp-server", "HybComb/200", "HybComb/5000", "CC-Synch/200"}
	tailCells := []Cell{full("mp-server", 0), full("HybComb", 200), full("HybComb", 5000), full("CC-Synch", 200)}
	for i := range tailCells {
		tailCells[i].RecordLatencies = true
	}
	tail := fixed(tailCells)

	// ablation compares HybComb with one of its registered variants.
	ablation := func(name, title, variant string, labels [4]string) Figure {
		return Figure{Name: name, Title: title, XLabel: "threads", X: []int{5, 15, 25, 35}, Cols: []Column{
			{Label: labels[0], Cell: counter("HybComb"), Metric: Result.Mops},
			{Label: labels[1], Cell: counter(variant), Metric: Result.Mops},
			{Label: labels[2], Cell: counter("HybComb"), Metric: Result.CombiningRate},
			{Label: labels[3], Cell: counter(variant), Metric: Result.CombiningRate},
		}}
	}

	return []Figure{
		{Name: "3a", Title: "Figure 3a — concurrent counter throughput (Mops/sec)",
			Note: fmt.Sprintf("MAX_OPS=%d, local work <=%d iters, horizon %d cycles x %d runs",
				maxOps, maxLocalWork, l.Horizon, l.Runs),
			XLabel: "threads", X: threadSweep, Cols: series(counter, "", Result.Mops, approaches...)},
		{Name: "3b", Title: "Figure 3b — concurrent counter latency (cycles)",
			XLabel: "threads", X: threadSweep, Cols: series(counter, "", Result.AvgLatency, approaches...)},
		{Name: "3c", Title: "Figure 3c — impact of the allowed combining rate (35 threads, Mops/sec)",
			XLabel: "MAX_OPS", X: []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}, Cols: []Column{
				{Label: "HybComb", Cell: maxops(at("HybComb", "counter")), Metric: Result.Mops},
				{Label: "CC-Synch", Cell: maxops(at("CC-Synch", "counter")), Metric: Result.Mops},
			}},
		{Name: "4a", Title: "Figure 4a — CPU stalls at the servicing thread (cycles per operation, 35 threads)",
			Note:   "combiners fixed for the whole run (MAX_OPS=inf), as in the paper's footnote 4",
			XLabel: "approach", X: []int{0, 1, 2, 3}, XNames: approaches, Cols: []Column{
				{Label: "stalled", Cell: servicing, Metric: stallPerOp},
				{Label: "total", Cell: servicing, Metric: busyPerOp},
			}},
		{Name: "4b", Title: "Figure 4b — actual combining rate (requests per combiner round)",
			Note:   fmt.Sprintf("MAX_OPS=%d", maxOps),
			XLabel: "threads", X: threadSweep, Cols: series(counter, "", Result.CombiningRate, "HybComb", "CC-Synch")},
		{Name: "4c", Title: "Figure 4c — cycles per CS execution vs CS length (35 threads)",
			XLabel: "iters", X: []int{0, 1, 2, 4, 6, 8, 10, 12, 15, 20, 30, 50},
			Cols: append(series(array, "", cyclesPerOp, approaches...),
				Column{Label: "ideal", Cell: array("mp-server"), Metric: idealCS})},
		{Name: "5a", Title: "Figure 5a — queue throughput under balanced load (Mops/sec)",
			Note:   "mp-server-2 occupies two server cores: its last point is 34 clients, not 35",
			XLabel: "clients", X: threadSweep, Cols: append(append(
				series(by("queue"), "-1", Result.Mops, approaches...),
				series(by("queue"), "", Result.Mops, "LCRQ")...),
				Column{Label: "mp-server-2", Metric: Result.Mops,
					Cell: func(clients int) Cell { return by("queue")("mp-server-2")(min(clients, 34)) }})},
		{Name: "5b", Title: "Figure 5b — stack throughput under balanced load (Mops/sec)",
			XLabel: "clients", X: threadSweep,
			Cols: series(by("stack"), "", Result.Mops, "mp-server", "HybComb", "shm-server", "CC-Synch", "Treiber")},
		{Name: "cas", Title: "§5.3 text — HybComb CAS per op and fairness across concurrency",
			XLabel: "threads", X: threadSweep, Cols: []Column{
				{Label: "CAS/op", Cell: counter("HybComb"), Metric: casPerOp},
				{Label: "CAS fail/op", Cell: counter("HybComb"), Metric: casFailPerOp},
				{Label: "fairness HybComb", Cell: counter("HybComb"), Metric: Result.Fairness},
				{Label: "fairness mp-server", Cell: counter("mp-server"), Metric: Result.Fairness},
			}},
		// §5.5: the pure-shared-memory approaches reach a lower peak and
		// stall proportionally more on an x86-like part than on the
		// TILE-Gx — hardware message passing would help even more there.
		// Its ten cores hold a server and up to nine threads.
		{Name: "x86", Title: "§5.5 — counter on x86-like profile (no hardware messaging)",
			XLabel: "threads", X: []int{1, 2, 3, 4, 5, 6, 7, 8, 9}, Cols: []Column{
				{Label: "shm-server Mops", Cell: x86("shm-server"), Metric: Result.Mops},
				{Label: "CC-Synch Mops", Cell: x86("CC-Synch"), Metric: Result.Mops},
				{Label: "shm-server stall/op", Cell: x86("shm-server"), Metric: stallPerOp},
			}},
		ablation("ablate-swap", "Ablation — combiner registration: CAS (paper) vs SWAP (§4.2 discussion)",
			"HybComb-SWAP", [4]string{"CAS Mops", "SWAP Mops", "CAS comb.rate", "SWAP comb.rate"}),
		ablation("ablate-drain", "Ablation — HybComb eager-drain loop (Algorithm 1 lines 25-28)",
			"HybComb-NoDrain", [4]string{"with drain Mops", "no drain Mops", "with comb.rate", "no comb.rate"}),
		// The §3 classic-lock baseline: under an MCS queue lock the CS
		// runs on the acquiring core and the object's lines migrate on
		// every operation; the other approaches keep them resident.
		{Name: "locks", Title: "Supplementary — MCS queue lock vs CS-migration approaches (counter, Mops/sec)",
			XLabel: "threads", X: []int{1, 3, 7, 14, 24, 35},
			Cols: series(counter, "", Result.Mops, "mcs-lock", "CC-Synch", "mp-server", "HybComb")},
		// The latency "hiccups" behind the Figure 3c tradeoff: raising
		// MAX_OPS raises HYBCOMB throughput, but the thread that becomes
		// a combiner occasionally pays a round's worth of latency.
		{Name: "tail", Title: "Supplementary — latency distribution at 35 threads (cycles)",
			XLabel: "approach", X: []int{0, 1, 2, 3}, XNames: tailNames, Cols: []Column{
				{Label: "p50", Cell: tail, Metric: percentile(0.50), Int: true},
				{Label: "p99", Cell: tail, Metric: percentile(0.99), Int: true},
				{Label: "max", Cell: tail, Metric: percentile(1.0), Int: true},
				{Label: "Mops", Cell: tail, Metric: Result.Mops},
			}},
	}
}
