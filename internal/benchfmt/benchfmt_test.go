package benchfmt

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// A measured line and an error line survive Marshal → ReadSweep with
// the schema version and host context intact; blank lines are skipped
// and fields this version no longer writes (skip, path) are ignored.
func TestLineRoundTrip(t *testing.T) {
	sf := 1.5
	in := []SweepRecord{
		{
			SchemaVersion: SchemaVersion, Host: CurrentHost(), Cell: 0, ElapsedMs: 31.25,
			Record: Record{
				Bench: "sharded", Algo: "hybcomb", Threads: 4,
				Ops: 99, Mops: 0.4, NsPerOp: 2500, Fairness: 1.1, Rounds: 10, Combined: 89,
				Shards: 2, Dist: "zipf:0.99", Depth: 1, Batch: 1,
				ShardOps: []uint64{40, 59}, ShardFairness: &sf,
				Pipe:  &Pipeline{SubmitStalls: 3, MaxDepth: 7},
				Adapt: &Adaptive{},
			},
		},
		{
			SchemaVersion: SchemaVersion, Host: CurrentHost(), Cell: 1, ElapsedMs: 5,
			Error:  "timed out after 5ms (goroutine abandoned)",
			Record: Record{Algo: "mpserver", Threads: 2, Shards: 1, Dist: "uniform", Depth: 8, Batch: 1},
		},
	}
	var text strings.Builder
	for _, rec := range in {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(line)
		text.WriteString("\n\n")
	}
	out, err := ReadSweep(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}

	old := `{"schema_version":2,"gomaxprocs":2,"goversion":"go1.24.0","numcpu":1,"cell":1,"skip":"batch-and-depth-exclusive","bench":"batch","algo":"mpserver","threads":1,"ops":5,"mops":1,"ns_per_op":1000,"depth":1,"batch":32,"path":"batch"}`
	recs, err := ReadSweep(strings.NewReader(old))
	if err != nil || len(recs) != 1 || recs[0].Batch != 32 || recs[0].GoMaxProcs != 2 {
		t.Fatalf("older line parsed as %+v (err %v)", recs, err)
	}

	if _, err := ReadSweep(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("malformed line did not error")
	}
}
