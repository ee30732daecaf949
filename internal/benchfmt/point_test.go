package benchfmt

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The table and the struct are the same declaration seen twice: every
// Point field has exactly one row, in field order, named as the field's
// JSON tag spells it, with a default ParseGrid accepts — and the
// record's axis fields exist only through the embedded Point.
func TestAxesTable(t *testing.T) {
	typ := reflect.TypeOf(Point{})
	if typ.NumField() != len(Axes) {
		t.Fatalf("Point has %d fields, Axes %d rows", typ.NumField(), len(Axes))
	}
	if !typ.Comparable() {
		t.Fatal("Point is not comparable")
	}
	for i, a := range Axes {
		f := typ.Field(i)
		if tag, _, _ := strings.Cut(f.Tag.Get("json"), ","); tag != a.Name {
			t.Errorf("row %d is %q, field %s is tagged %q", i, a.Name, f.Name, tag)
		}
		if (a.num == nil) == (a.str == nil) {
			t.Errorf("axis %q needs exactly one of num and str", a.Name)
		}
		if a.Numeric() != (f.Type.Kind() == reflect.Int) {
			t.Errorf("axis %q: Numeric() = %v over a %s field", a.Name, a.Numeric(), f.Type)
		}
		// The row reaches its own field and no other.
		var p Point
		if err := a.Set(&p, "7"); err != nil {
			t.Fatal(err)
		}
		if v := reflect.ValueOf(p); v.Field(i).IsZero() || a.Get(p) != "7" {
			t.Errorf("axis %q does not reach field %s: %+v", a.Name, f.Name, p)
		}
		reflect.ValueOf(&p).Elem().Field(i).SetZero()
		if p != (Point{}) {
			t.Errorf("axis %q wrote outside field %s: %+v", a.Name, f.Name, p)
		}
	}
	if _, err := ParseGrid("", nil); err != nil {
		t.Errorf("the defaults do not parse: %v", err)
	}
	rec := reflect.TypeOf(Record{})
	for i := 0; i < rec.NumField(); i++ {
		if f := rec.Field(i); !f.Anonymous {
			if _, isAxis := typ.FieldByName(f.Name); isAxis {
				t.Errorf("Record declares axis field %s beside the embedded Point", f.Name)
			}
		}
	}
}

func TestAxisAccessors(t *testing.T) {
	p := Point{Algo: "mpserver", Threads: 4, Shards: 1, Dist: "zipf:0.99", Depth: 8, Batch: 1}
	want := []string{"mpserver", "4", "1", "zipf:0.99", "8", "1"}
	for i, a := range Axes {
		if got := a.Get(p); got != want[i] {
			t.Errorf("%s: Get = %q, want %q", a.Name, got, want[i])
		}
		if a.Numeric() && a.Get(p) != "" && a.Int(p) <= 0 {
			t.Errorf("%s: Int = %d", a.Name, a.Int(p))
		}
	}
	if s := p.String(); s != "algo=mpserver;threads=4;shards=1;dist=zipf:0.99;depth=8;batch=1" {
		t.Errorf("String() = %q", s)
	}
	// Blank axes drop out: the scenario identity that pairs algorithms.
	p.Algo, p.Threads = "", 0
	if s := p.String(); s != "shards=1;dist=zipf:0.99;depth=8;batch=1" {
		t.Errorf("blanked String() = %q", s)
	}
	if s := (Point{}).String(); s != "" {
		t.Errorf("zero String() = %q", s)
	}
}

// Numeric axes take positive integers only; symbolic ones any symbol.
func TestAxisSetNumeric(t *testing.T) {
	for _, a := range Axes {
		var p Point
		for _, bad := range []string{"0", "-1", "two", "1.5", ""} {
			err := a.Set(&p, bad)
			if a.Numeric() && (err == nil || !strings.Contains(err.Error(), a.Name)) {
				t.Errorf("%s: Set(%q) = %v, want an error naming the axis", a.Name, bad, err)
			}
			if !a.Numeric() && err != nil {
				t.Errorf("%s: Set(%q) = %v on a symbolic axis", a.Name, bad, err)
			}
		}
		if err := a.Set(&p, "12"); err != nil || a.Get(p) != "12" {
			t.Errorf("%s: Set(12) → %q, %v", a.Name, a.Get(p), err)
		}
	}
}

func TestParseGrid(t *testing.T) {
	points, err := ParseGrid("threads= 1, 2 ,4 ; depth=8;", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Unnamed axes keep their defaults: five algorithms, one of the rest.
	if len(points) != 5*3 {
		t.Fatalf("got %d points, want 15", len(points))
	}
	threads := map[int]bool{}
	for _, p := range points {
		threads[p.Threads] = true
		if p.Depth != 8 || p.Shards != 1 || p.Dist != "uniform" || p.Batch != 1 {
			t.Fatalf("point %s", p)
		}
	}
	if len(threads) != 3 || !threads[1] || !threads[2] || !threads[4] {
		t.Errorf("threads = %v", threads)
	}
	// A later clause for the same axis wins.
	if points, err = ParseGrid("algo=a;algo=b,c", nil); err != nil || len(points) != 4 || points[0].Algo != "b" {
		t.Errorf("repeated clause: %v, %v", points, err)
	}
}

func TestParseGridErrors(t *testing.T) {
	refuse := errors.New("refused")
	vet := func(p Point) error {
		if p.Algo == "nope" || p.Dist == "zipf:3" {
			return refuse
		}
		return nil
	}
	for spec, want := range map[string]string{
		"bogus=1":     `unknown axis "bogus" (known: algo, threads, shards, dist, depth, batch)`,
		"threads":     `bad grid clause "threads"`,
		"threads=":    `axis "threads": empty value list`,
		"threads= , ": `axis "threads": empty value list`,
		"threads=0":   `value "0" is not a positive integer`,
		"batch=1,x":   `axis "batch": value "x"`,
		"algo=a,nope": "refused",
		"dist=zipf:3": "refused",
		"=1":          `unknown axis ""`,
		"threads=" + strings.Repeat("1,", 1<<10) + ";depth=" + strings.Repeat("1,", 1<<10): "more than 1048576 cells",
		"depth=1;shrds": `bad grid clause "shrds"`,
	} {
		if _, err := ParseGrid(spec, vet); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseGrid(%q) = %v, want %q", spec, err, want)
		}
	}
	// vet sees each value alone, once.
	var seen []Point
	if _, err := ParseGrid("algo=a,b;threads=1,2;shards=1;dist=uniform;depth=1;batch=1", func(p Point) error {
		seen = append(seen, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []Point{{Algo: "a"}, {Algo: "b"}, {Threads: 1}, {Threads: 2}, {Shards: 1}, {Dist: "uniform"}, {Depth: 1}, {Batch: 1}}
	if !reflect.DeepEqual(seen, want) {
		t.Errorf("vet saw %v", seen)
	}
}

// The enumeration contract, pinned by a literal: contiguous cell
// indices from 0, first axis slowest, last axis fastest — so the cell
// indices of existing sweep files keep their meaning.
func TestParseGridOrder(t *testing.T) {
	points, err := ParseGrid("algo=a,b;threads=1,2;batch=1,8", nil)
	if err != nil {
		t.Fatal(err)
	}
	at := func(algo string, threads, batch int) Point {
		return Point{Algo: algo, Threads: threads, Shards: 1, Dist: "uniform", Depth: 1, Batch: batch}
	}
	want := []Point{
		at("a", 1, 1), at("a", 1, 8), at("a", 2, 1), at("a", 2, 8),
		at("b", 1, 1), at("b", 1, 8), at("b", 2, 1), at("b", 2, 8),
	}
	if !reflect.DeepEqual(points, want) {
		t.Fatalf("enumeration order changed:\n got %v\nwant %v", points, want)
	}
	again, _ := ParseGrid("algo=a,b;threads=1,2;batch=1,8", nil)
	if !reflect.DeepEqual(points, again) {
		t.Fatal("enumeration not deterministic")
	}
}

// An accepted spec enumerates exactly the product of its value-list
// lengths, and each point's String() is the spec that selects it alone.
func FuzzParseGrid(f *testing.F) {
	for _, seed := range []string{
		"",
		"algo=mpserver,hybcomb,ccsynch,shmserver,mcs-lock,hybrid;threads=1,2;shards=1,4;dist=uniform,zipf:0.99,phase:5ms:0.5;depth=1,4;batch=1,8",
		"algo=mpserver,hybcomb,ccsynch,shmserver,mcs-lock,hybrid;threads=2;dist=uniform,phase:5ms:0.5",
		"algo=mpserver,hybcomb;threads=1,2,4;depth=1,8;batch=1,32",
		"algo=mpserver,hybcomb,shmserver,ccsynch,mcs-lock,hybrid;threads=1,2,4,8;shards=1,2,4,8;dist=uniform,zipf:0.99,phase:5ms:0.5;depth=1,2,4,8;batch=1,2,4,8,16,32",
		"threads= 1, 2 ,4 ; depth=8;",
		"bogus=1", "threads=0", "threads", "algo=a=b", "depth=+3,03",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		points, err := ParseGrid(spec, nil)
		if err != nil {
			return
		}
		// The product, worked out independently: the last clause that
		// names an axis decides its list.
		counts := make(map[string]int, len(Axes))
		for _, a := range Axes {
			counts[a.Name] = len(strings.Split(a.Default, ","))
		}
		for _, clause := range strings.Split(spec, ";") {
			if name, list, ok := strings.Cut(clause, "="); ok {
				n := 0
				for _, v := range strings.Split(list, ",") {
					if strings.TrimSpace(v) != "" {
						n++
					}
				}
				counts[strings.TrimSpace(name)] = n
			}
		}
		product := 1
		for _, a := range Axes {
			product *= counts[a.Name]
		}
		if len(points) != product {
			t.Fatalf("%q: %d points, want %d", spec, len(points), product)
		}
		if product > 1<<12 {
			return // the rest is per point
		}
		seen := make(map[Point]bool, len(points))
		for i, p := range points {
			if seen[p] {
				// Only a repeated value ("threads=1,1", "depth=3,03") repeats a point.
				continue
			}
			seen[p] = true
			alone, err := ParseGrid(p.String(), nil)
			if err != nil || len(alone) != 1 || alone[0] != p {
				t.Fatalf("%q: cell %d is %q, which re-parses to %v (%v)", spec, i, p, alone, err)
			}
		}
	})
}

// Any line ReadSweep accepts re-encodes (WriteSweep) and re-reads to
// the same record.
func FuzzReadSweep(f *testing.F) {
	f.Add(`{"schema_version":2,"gomaxprocs":1,"goversion":"go1.24.0","numcpu":2,"cell":0,"elapsed_ms":302.318,"bench":"counter","algo":"mpserver","threads":1,"ops":399321,"mops":1.3309,"ns_per_op":751.3,"fairness":1,"shards":1,"dist":"uniform","depth":1,"batch":1,"pipeline":{"submit_stalls":0,"max_depth":0}}`)
	f.Add(`{"schema_version":2,"gomaxprocs":2,"goversion":"go1.24.0","numcpu":2,"cell":7,"error":"timed out after 1ms (goroutine abandoned)","elapsed_ms":1.035,"algo":"hybcomb","threads":2,"shards":4,"dist":"zipf:0.99","depth":1,"batch":8,"ops":0,"mops":0,"ns_per_op":0}`)
	f.Add(`{"bench":"sharded","algo":"ccsynch","threads":2,"shards":2,"shard_ops":[1,2],"shard_fairness":0,"adaptive":{"promotions":1,"demotions":0},"latency_ns":{"p50":1},"run_len":{"mean":1.5}}` + "\n\n{}\n")
	f.Add("{not json}\n")
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ReadSweep(strings.NewReader(text))
		if err != nil {
			return
		}
		var out strings.Builder
		for _, rec := range recs {
			if err := WriteSweep(&out, rec); err != nil {
				t.Fatalf("re-encoding %+v: %v", rec, err)
			}
		}
		again, err := ReadSweep(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", out.String(), err)
		}
		for i := range recs {
			recs[i].SchemaVersion = SchemaVersion // the writer's stamp
			if len(recs[i].ShardOps) == 0 {
				recs[i].ShardOps = nil // "shard_ops":[] is written as absent
			}
		}
		if !reflect.DeepEqual(recs, again) {
			t.Fatalf("re-read mismatch:\n got %+v\nwant %+v", again, recs)
		}
	})
}
