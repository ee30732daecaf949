// Package benchfmt is the one definition of the repo's native benchmark
// point and record: a Point is the grid's six axes and Axes the one
// table that names them (point.go); internal/measure runs a Point and
// fills a Record, cmd/hybsweep enumerates Points (ParseGrid) and
// streams each Record as a self-contained SweepRecord JSONL line
// (WriteSweep, BENCH_sweep.jsonl), and cmd/benchguard reads those lines
// back (ReadSweep) — one line shape, no envelope, no parallel struct
// definitions drifting apart.
//
// Schema history:
//
//	v1 (unversioned, PRs 2–5): an indented envelope with
//	    gomaxprocs/goversion/numcpu and per-point results; batch-path
//	    records carried combiner rounds/combined counters whose unit
//	    is ill-defined for batched submissions.
//	v2 (this package): explicit schema_version and inline host context
//	    on every JSONL line; batch records omit rounds/combined (see
//	    Record.Rounds); every axis (shards, dist, depth, batch) is
//	    stamped on every measured line. The envelope, the per-cell skip
//	    lines and the path field ("batch" iff bench is "batch") are
//	    gone; encoding/json ignores them in old files.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// SchemaVersion is the version stamped on everything this package
// writes. Bump it when a field changes meaning, not when one is added:
// added fields are backward-compatible by construction.
const SchemaVersion = 2

// Host is the measurement context that makes records comparable
// across machines and runs.
type Host struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"goversion"`
	NumCPU     int    `json:"numcpu"`
}

// CurrentHost captures the running process's context.
func CurrentHost() Host {
	return Host{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
	}
}

// Pipeline is the PipelineStats payload of a record; zero values are
// meaningful (an unstalled run reports submit_stalls 0), so the whole
// struct is pointer-omitted rather than field-omitted.
type Pipeline struct {
	SubmitStalls uint64 `json:"submit_stalls"`
	MaxDepth     uint64 `json:"max_depth"`
}

// Latency is the telemetry latency payload of a record: sampled
// blocking-call latency in nanoseconds. Percentiles are log₂-bucket
// upper bounds (within 2× of the true value — see internal/telemetry);
// Samples is the sample count, not the op count. Present only on runs
// measured with telemetry armed (pointer-omitted, like Pipeline).
type Latency struct {
	P50     uint64 `json:"p50"`
	P90     uint64 `json:"p90"`
	P99     uint64 `json:"p99"`
	P999    uint64 `json:"p999"`
	Max     uint64 `json:"max"`
	Samples uint64 `json:"samples"`
}

// RunLength is the telemetry run-length payload of a record: requests
// per DispatchBatch run the construction formed (a combining round's
// serve, a server drain, a lock-path batch). Unsampled — Dispatches
// counts every run. Percentiles are log₂-bucket upper bounds; Mean is
// exact.
type RunLength struct {
	P50        uint64  `json:"p50"`
	P99        uint64  `json:"p99"`
	Max        uint64  `json:"max"`
	Mean       float64 `json:"mean"`
	Dispatches uint64  `json:"dispatches"`
}

// Adaptive is the mode-transition payload of a record: how often an
// adaptive construction promoted (lock → delegation) and demoted
// (delegation → lock) during the run. Emitted only for executors
// implementing hybsync.AdaptiveStats; zero values are meaningful (a
// phased run where the hybrid never left lock mode is a finding), so
// the whole struct is pointer-omitted like Pipeline.
type Adaptive struct {
	Promotions uint64 `json:"promotions"`
	Demotions  uint64 `json:"demotions"`
}

// Record is one measured point, complete as internal/measure returns
// it: the Point (every grid axis), throughput, and whichever counters
// the construction keeps. The shard_* fields appear only on sharded-bench
// records: shard_ops is the per-shard occupancy profile
// (how the keyed workload actually landed) and shard_fairness its
// max/min ratio (1.0 = perfectly balanced).
type Record struct {
	Bench string `json:"bench,omitempty"`
	Point
	Ops     uint64  `json:"ops"`
	Mops    float64 `json:"mops"`
	NsPerOp float64 `json:"ns_per_op"`
	// Fairness is the max/min per-thread op-count ratio (1 = ideal).
	// On batch records the per-thread counts are rescaled to operations
	// before the ratio is taken, so it stays comparable.
	Fairness float64 `json:"fairness,omitempty"`
	// Rounds/Combined are the executor's combining counters; see the
	// core.StatsSource godoc for the canonical semantics (including why
	// the scalar identity rounds+combined==ops fails on batch paths —
	// bench "batch" records, and bench "async" records of the lock-backed
	// constructions, carry neither for that reason).
	Rounds   uint64   `json:"rounds,omitempty"`
	Combined uint64   `json:"combined,omitempty"`
	ShardOps []uint64 `json:"shard_ops,omitempty"`
	// A pointer so sharded records keep the meaningful value 0 ("some
	// shard was never touched") while non-sharded records omit the
	// field entirely.
	ShardFairness *float64   `json:"shard_fairness,omitempty"`
	Pipe          *Pipeline  `json:"pipeline,omitempty"`
	Lat           *Latency   `json:"latency_ns,omitempty"`
	RunLen        *RunLength `json:"run_len,omitempty"`
	Adapt         *Adaptive  `json:"adaptive,omitempty"`
}

// SweepRecord is one line of sweep JSONL (BENCH_sweep.jsonl). Every
// line is self-contained — it carries the schema version and host
// context inline — so sweep files from different GOMAXPROCS runs
// concatenate into one artifact and a consumer never needs an
// envelope.
//
// A line is either measured (Error empty, every Record field
// populated) or failed (Error carries the panic or timeout; the axis
// fields still describe the cell but ops/mops are zero). Cells the
// execution model does not define are never written: hybsweep counts
// them per reason in its summary.
type SweepRecord struct {
	SchemaVersion int `json:"schema_version"`
	Host
	Cell      int     `json:"cell"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	Record
}

// WriteSweep appends rec to w as one sweep JSONL line, stamped with
// SchemaVersion, in a single Write — so a consumer tailing the file
// sees whole cells, and files from separate runs concatenate into one
// valid artifact.
func WriteSweep(w io.Writer, rec SweepRecord) error {
	rec.SchemaVersion = SchemaVersion
	return json.NewEncoder(w).Encode(rec)
}

// ReadSweep parses sweep JSONL: one SweepRecord per non-empty line.
func ReadSweep(r io.Reader) ([]SweepRecord, error) {
	var out []SweepRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec SweepRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("sweep line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
