package benchfmt

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// sampleLines is one measured keyed line with every optional payload,
// one failed line (axes only) and one plain counter line.
func sampleLines() []SweepRecord {
	sf := 1.5
	host := Host{GoMaxProcs: 2, GoVersion: "go1.24.0", NumCPU: 2}
	return []SweepRecord{
		{
			SchemaVersion: SchemaVersion, Host: host, Cell: 0, ElapsedMs: 31.25,
			Record: Record{
				Bench: "sharded",
				Point: Point{Algo: "hybcomb", Threads: 4, Shards: 2, Dist: "zipf:0.99", Depth: 1, Batch: 1},
				Ops:   99, Mops: 0.4, NsPerOp: 2500, Fairness: 1.1, Rounds: 10, Combined: 89,
				ShardOps: []uint64{40, 59}, ShardFairness: &sf,
				Pipe:  &Pipeline{SubmitStalls: 3, MaxDepth: 7},
				Adapt: &Adaptive{},
			},
		},
		{
			SchemaVersion: SchemaVersion, Host: host, Cell: 1, ElapsedMs: 5,
			Error:  "timed out after 5ms (goroutine abandoned)",
			Record: Record{Point: Point{Algo: "mpserver", Threads: 2, Shards: 1, Dist: "uniform", Depth: 8, Batch: 1}},
		},
		{
			SchemaVersion: SchemaVersion, Host: host, Cell: 2, ElapsedMs: 50,
			Record: Record{
				Bench: "counter",
				Point: Point{Algo: "mpserver", Threads: 2, Shards: 1, Dist: "uniform", Depth: 1, Batch: 1},
				Ops:   123456, Mops: 1.23, NsPerOp: 813, Fairness: 1.1,
				Lat:    &Latency{P50: 1023, P90: 2047, P99: 4095, P999: 8191, Max: 9000, Samples: 77},
				RunLen: &RunLength{P50: 1, P99: 3, Max: 4, Mean: 1.2, Dispatches: 100000},
			},
		},
	}
}

// A measured line and an error line survive Marshal → ReadSweep with
// the schema version and host context intact; blank lines are skipped
// and fields this version no longer writes (skip, path) are ignored.
func TestLineRoundTrip(t *testing.T) {
	in := sampleLines()
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

// WriteSweep emits one line per record, stamps the schema version, and
// ReadSweep returns the records unchanged (the contract
// BENCH_sweep.jsonl and benchguard rely on).
func TestWriteSweepRoundTrip(t *testing.T) {
	in := sampleLines()
	var buf bytes.Buffer
	for _, rec := range in {
		rec.SchemaVersion = 0 // the writer's to stamp
		if err := WriteSweep(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != len(in) {
		t.Fatalf("wrote %d lines, want %d", n, len(in))
	}
	out, err := ReadSweep(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// parentRecord and parentSweepRecord are the line shape as the commit
// before the Point refactor declared it, field for field: the old
// reader, kept to show that lines cross the change in both directions.
type parentRecord struct {
	Bench         string     `json:"bench,omitempty"`
	Algo          string     `json:"algo"`
	Threads       int        `json:"threads"`
	Ops           uint64     `json:"ops"`
	Mops          float64    `json:"mops"`
	NsPerOp       float64    `json:"ns_per_op"`
	Fairness      float64    `json:"fairness,omitempty"`
	Rounds        uint64     `json:"rounds,omitempty"`
	Combined      uint64     `json:"combined,omitempty"`
	Shards        int        `json:"shards,omitempty"`
	Dist          string     `json:"dist,omitempty"`
	Depth         int        `json:"depth,omitempty"`
	Batch         int        `json:"batch,omitempty"`
	ShardOps      []uint64   `json:"shard_ops,omitempty"`
	ShardFairness *float64   `json:"shard_fairness,omitempty"`
	Pipe          *Pipeline  `json:"pipeline,omitempty"`
	Lat           *Latency   `json:"latency_ns,omitempty"`
	RunLen        *RunLength `json:"run_len,omitempty"`
	Adapt         *Adaptive  `json:"adaptive,omitempty"`
}

type parentSweepRecord struct {
	SchemaVersion int `json:"schema_version"`
	Host
	Cell      int     `json:"cell"`
	Error     string  `json:"error,omitempty"`
	ElapsedMs float64 `json:"elapsed_ms,omitempty"`
	parentRecord
}

// Old reader / new writer and the reverse: a line the new writer emits
// decodes into the parent's struct with nothing lost, and re-encoding
// that struct as the parent would gives a line the new reader turns
// back into the record it started from.
func TestLinesCrossTheParentSchema(t *testing.T) {
	for _, rec := range sampleLines() {
		var line bytes.Buffer
		if err := WriteSweep(&line, rec); err != nil {
			t.Fatal(err)
		}
		var old parentSweepRecord
		dec := json.NewDecoder(bytes.NewReader(line.Bytes()))
		dec.DisallowUnknownFields() // the new writer adds no field the parent lacks
		if err := dec.Decode(&old); err != nil {
			t.Fatalf("parent reader refused %s: %v", line.Bytes(), err)
		}
		if old.Algo != rec.Algo || old.Threads != rec.Threads || old.Shards != rec.Shards ||
			old.Dist != rec.Dist || old.Depth != rec.Depth || old.Batch != rec.Batch ||
			old.Cell != rec.Cell || old.Error != rec.Error || old.Bench != rec.Bench || old.Ops != rec.Ops {
			t.Fatalf("parent reader saw %+v of %+v", old, rec)
		}
		parentLine, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadSweep(bytes.NewReader(parentLine))
		if err != nil || len(back) != 1 || !reflect.DeepEqual(back[0], rec) {
			t.Fatalf("new reader on the parent's line %s:\n got %+v (err %v)\nwant %+v", parentLine, back, err, rec)
		}
	}
}

// The committed corpus stays readable: every line parses, none is a
// failed line, and the lines are 2,496 identities (point, bench,
// gomaxprocs) — 1,248 defined cells at GOMAXPROCS 1 and 2 — held
// exactly three times each.
func TestCorpusReadable(t *testing.T) {
	f, err := os.Open("../../BENCH_sweep.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadSweep(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7488 {
		t.Fatalf("corpus has %d lines, want 7488", len(recs))
	}
	type identity struct {
		Point
		bench      string
		gomaxprocs int
	}
	held := map[identity]int{}
	for i, r := range recs {
		if r.Error != "" || r.SchemaVersion != SchemaVersion || r.NsPerOp <= 0 {
			t.Fatalf("line %d is not a measured v%d line: %+v", i+1, SchemaVersion, r)
		}
		for _, a := range Axes {
			if a.Get(r.Point) == "" {
				t.Fatalf("line %d has no %s: %+v", i+1, a.Name, r)
			}
		}
		held[identity{r.Point, r.Bench, r.GoMaxProcs}]++
	}
	if len(held) != 2496 {
		t.Fatalf("corpus holds %d identities, want 2496", len(held))
	}
	for id, n := range held {
		if n != 3 {
			t.Fatalf("%s %s gomaxprocs=%d held %d times, want 3", id.bench, id.Point, id.gomaxprocs, n)
		}
	}
}
