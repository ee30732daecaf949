// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the critical-section constructions, every result
// checked against an oracle, every metric printed by name and unit.
//
//	go run ./benchmark -seed 7                 # all four workloads, end to end
//	go run ./benchmark -seed 7 -trace 1        # the per-layer (traced) pass instead
//	go run ./benchmark -compare a.json b.json  # two saved sets against BENCHMARK.json's bounds
//
// BENCHMARK.json's command (benchmark/run.sh) builds this package inside
// the checkout and runs one workload per invocation:
//
//	benchmark -workload solo-apply -seed 7 -seconds 25 -trace 0
//
// README.md in this directory holds the metric glossary, why each
// workload exists and how the layers are expected to move the
// end-to-end numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// config is one invocation.
type config struct {
	workload string // one of workloadNames, or "all"
	seed     uint64
	seconds  float64 // measured seconds per workload
	trace    bool
	traceOut string
	wrap     objectWrap // fault injection (oracle test); nil otherwise
	plan     *plan      // overrides planFor(seconds) (smoke test)
	probes   probeScale
}

// metric is one reported value with its unit, the contract's shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's output object for one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// savedResult is one line of a saved all-workloads run, what -compare
// reads: the contract object plus the workload and seed it belongs to.
type savedResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Host     host   `json:"host"`
	Result   result `json:"result"`
}

// host is the fingerprint printed with every run: numbers from
// different hosts are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

var endToEndUnits = map[string]string{
	"mops_all":      "Mops/s",
	"mops_mp":       "Mops/s",
	"mops_shm":      "Mops/s",
	"cpu_ns_per_op": "ns",
	"setup_s":       "s",
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run: solo-apply, contended-apply, pipelined-window, sharded-multi, or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs (local-work draws, op mix, Zipf keys)")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the per-layer traced pass instead of the end-to-end pass")
	fs.StringVar(&cfg.traceOut, "trace-out", ".bench_build/trace.jsonl", "where the traced pass writes its spans (JSONL)")
	compare := fs.Bool("compare", false, "compare two saved outputs (files follow) against BENCHMARK.json's bounds")
	fs.Parse(os.Args[1:])
	if *compare {
		os.Exit(compareMain(fs.Args(), os.Stdout))
	}
	cfg.trace = *trace != 0
	cfg.probes = fullProbes

	// The benchmark's numbers assume two processors: one per client, or
	// client plus server.
	if runtime.NumCPU() < 2 {
		fmt.Fprintln(os.Stderr, "benchmark: needs at least 2 CPUs (nproc < 2): client and server would time-share one core")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(2)
	os.Exit(run(cfg, os.Stdout))
}

// run executes cfg and returns the process exit code: 0 when every
// operation of every workload passed its oracle.
func run(cfg config, out io.Writer) int {
	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	} else if !slices.Contains(workloadNames, cfg.workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want one of %v or all)\n", cfg.workload, workloadNames)
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	h := hostInfo()
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d go=%s cpu=%q seed=%d\n", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, cfg.seed)
	code := 0
	for _, name := range names {
		res, err := runWorkload(cfg, name, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
		// The JSON object is the last line a workload prints; for a
		// single workload that makes it the last line of the output.
		var line any = res
		if cfg.workload == "all" {
			line = savedResult{Workload: name, Seed: cfg.seed, Host: h, Result: res}
		}
		if err := json.NewEncoder(out).Encode(line); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload's end-to-end or traced pass and prints
// its metrics by name and unit.
func runWorkload(cfg config, name string, out io.Writer) (result, error) {
	in, err := newInputs(cfg.seed, name)
	if err != nil {
		return result{}, err
	}
	p := planFor(cfg.seconds)
	if cfg.plan != nil {
		p = *cfg.plan
	}
	res := result{Metrics: map[string]metric{}}
	if cfg.trace {
		pl, err := runTraced(cfg, name, in, p)
		if err != nil {
			return result{}, err
		}
		res.Attempted, res.Failed = pl.attempted, pl.failed
		for _, d := range perLayerDefs() {
			res.Metrics[d.name] = metric{pl.metrics[d.name], d.unit}
		}
		for _, n := range pl.notes {
			fmt.Fprintf(out, "note: %s\n", n)
		}
	} else {
		e, err := runEndToEnd(name, in, p, cfg.wrap)
		if err != nil {
			return result{}, err
		}
		res.Attempted, res.Failed = e.attempted, e.failed
		for k, v := range e.metrics {
			res.Metrics[k] = metric{v, endToEndUnits[k]}
		}
		// As measured, before the host-speed correction.
		for _, c := range measured {
			cr := e.per[c.algo]
			fmt.Fprintf(out, "%-17s %-9s %9.4f Mops/s  %8.1f cpu ns/op  setup %.6f s  (as measured)\n", name, c.algo, cr.mops, cr.cpuNsPerOp, cr.setup)
		}
		for _, k := range sortedKeys(e.raw) {
			fmt.Fprintf(out, "%-17s %-42s %16.6f %s (as measured)\n", name, k, e.raw[k], endToEndUnits[k])
		}
		fmt.Fprintf(out, "%-17s %-42s %16.6f Mops/s (nominal %g: rates below are ×%.4f, times ÷)\n",
			name, "host-speed reference", e.refMops, refNominalMops, refNominalMops/e.refMops)
	}
	if res.Attempted == 0 {
		res.Attempted = 1 // the contract's floor; nothing ran, and Failed says so
		res.Failed = 1
	}
	res.Correct = res.Failed == 0
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "%-17s %-42s %16.6f %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Fprintf(out, "%-17s %-42s %16.3g (%d failed of %d attempted)\n", name, "failed_ops_ratio",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	return res, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		h.CPUModel = cpuModel(string(b))
	}
	return h
}

// cpuModel extracts the first "model name" of /proc/cpuinfo.
func cpuModel(cpuinfo string) string {
	for _, line := range strings.Split(cpuinfo, "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
