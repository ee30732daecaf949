package sweep

import (
	"bytes"
	"reflect"
	"testing"

	"hybsync/internal/benchfmt"
)

// TestJSONLRoundTrip writes SweepRecords through the streaming writer
// and reads them back with benchfmt.ReadSweep: the records must come
// back identical (the contract BENCH_sweep.jsonl and benchguard rely
// on).
func TestJSONLRoundTrip(t *testing.T) {
	sf := 1.5
	in := []benchfmt.SweepRecord{
		{
			SchemaVersion: benchfmt.SchemaVersion,
			Host:          benchfmt.Host{GoMaxProcs: 2, GoVersion: "go1.24.0", NumCPU: 1},
			Cell:          0,
			ElapsedMs:     31.25,
			Record: benchfmt.Record{
				Bench: "counter", Algo: "mpserver", Threads: 2,
				Ops: 123456, Mops: 1.23, NsPerOp: 813.0,
				Fairness: 1.1, Rounds: 10, Combined: 90,
				Shards: 1, Dist: "uniform", Depth: 1, Batch: 1,
				Pipe: &benchfmt.Pipeline{SubmitStalls: 3, MaxDepth: 7},
			},
		},
		{
			SchemaVersion: benchfmt.SchemaVersion,
			Host:          benchfmt.Host{GoMaxProcs: 2, GoVersion: "go1.24.0", NumCPU: 1},
			Cell:          1,
			Error:         "timed out after 30s (goroutine abandoned)",
			Record: benchfmt.Record{
				Algo: "mpserver", Threads: 2,
				Shards: 1, Dist: "uniform", Depth: 8, Batch: 1,
			},
		},
		{
			SchemaVersion: benchfmt.SchemaVersion,
			Host:          benchfmt.Host{GoMaxProcs: 1, GoVersion: "go1.24.0", NumCPU: 1},
			Cell:          2,
			ElapsedMs:     50,
			Record: benchfmt.Record{
				Bench: "sharded", Algo: "hybcomb", Threads: 4,
				Ops: 99, Mops: 0.4, NsPerOp: 2500,
				Shards: 2, Dist: "zipf:0.99", Depth: 1, Batch: 1,
				ShardOps: []uint64{40, 59}, ShardFairness: &sf,
			},
		},
	}
	var buf bytes.Buffer
	w := NewJSONLWriter(&buf)
	for _, rec := range in {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(in) {
		t.Fatalf("wrote %d lines, want %d", n, len(in))
	}
	out, err := benchfmt.ReadSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}
