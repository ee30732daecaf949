package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runSet is one saved set of runs: per workload and metric, the value
// of every run in the file, plus the oracle totals.
type runSet struct {
	values    map[string]map[string][]float64
	attempted map[string]uint64
	failed    map[string]uint64
}

// loadSet reads a file of saved all-workloads output. Lines that are
// not saved results (the human-readable table) are skipped; several
// runs may be concatenated, and each contributes one value per metric.
func loadSet(r io.Reader) (runSet, error) {
	s := runSet{values: map[string]map[string][]float64{}, attempted: map[string]uint64{}, failed: map[string]uint64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, `{"workload"`) {
			continue
		}
		var sr savedResult
		if err := json.Unmarshal([]byte(line), &sr); err != nil {
			return s, fmt.Errorf("bad result line: %w", err)
		}
		if s.values[sr.Workload] == nil {
			s.values[sr.Workload] = map[string][]float64{}
		}
		for name, m := range sr.Result.Metrics {
			s.values[sr.Workload][name] = append(s.values[sr.Workload][name], m.Value)
		}
		s.attempted[sr.Workload] += sr.Result.Attempted
		s.failed[sr.Workload] += sr.Result.Failed
	}
	return s, sc.Err()
}

// compareRow is one workload × metric verdict.
type compareRow struct {
	workload, metric string
	a, b             float64 // medians of the two sets
	worse            float64 // share of a by which b is worse (negative: better)
	bound            float64
	breach           bool
}

// compareSets checks set b against set a on every end-to-end metric and
// workload of spec: b's median may be worse than a's by at most the
// metric's bound, and its failed-operation ratio may not rise at all.
// A metric missing from either set is a breach: no data is not
// agreement.
func compareSets(spec benchSpec, a, b runSet) []compareRow {
	var rows []compareRow
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			row := compareRow{workload: w.Name, metric: m.Name, bound: m.Bound}
			va, vb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				row.breach = true
				rows = append(rows, row)
				continue
			}
			row.a, row.b = median(va), median(vb)
			if row.a != 0 {
				row.worse = (row.b - row.a) / row.a
				if m.Better == "higher" {
					row.worse = -row.worse
				}
			}
			row.breach = row.worse > m.Bound
			rows = append(rows, row)
		}
		row := compareRow{workload: w.Name, metric: "failed_ops_ratio"}
		if a.attempted[w.Name] > 0 && b.attempted[w.Name] > 0 {
			row.a = float64(a.failed[w.Name]) / float64(a.attempted[w.Name])
			row.b = float64(b.failed[w.Name]) / float64(b.attempted[w.Name])
		}
		row.breach = row.b > row.a
		rows = append(rows, row)
	}
	return rows
}

func printRows(out io.Writer, rows []compareRow) {
	fmt.Fprintf(out, "%-17s %-17s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, r := range rows {
		verdict := ""
		if r.breach {
			verdict = "  BREACH"
		}
		fmt.Fprintf(out, "%-17s %-17s %14.6g %14.6g %8.2f%% %6.0f%%%s\n",
			r.workload, r.metric, r.a, r.b, r.worse*100, r.bound*100, verdict)
	}
}

// compareMain is -compare: exit 0 when the second saved set agrees with
// the first within BENCHMARK.json's bounds, 1 on a breach, 2 on misuse.
func compareMain(files []string, out io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files of saved output")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: -compare reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: BENCHMARK.json: %v\n", err)
		return 2
	}
	var sets [2]runSet
	for i, name := range files {
		f, err := os.Open(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		sets[i], err = loadSet(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
	}
	rows := compareSets(spec, sets[0], sets[1])
	printRows(out, rows)
	for _, r := range rows {
		if r.breach {
			return 1
		}
	}
	return 0
}
