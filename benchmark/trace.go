package main

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"

	"hybsync/internal/core"
	ishard "hybsync/internal/shard"
)

// The traced pass records spans from the benchmark's side of each layer
// boundary only — nothing inside the program is instrumented:
//
//   - the client records when a tagged call starts and returns ("op");
//   - the object wrapper records DispatchBatch entry, exit and run
//     length for every run containing a tagged request;
//   - joining the two by span id splits the op into its children
//     queue_wait (call start → dispatch entry), service (dispatch
//     entry → exit) and reply_wake (dispatch exit → call return).
//
// sharded-multi's object lives inside internal/shard and its arguments
// are the map's own, so no id can ride through it: its op spans are per
// call kind and their one child is a route span — the partitioner timed
// on the call's keys right before the call.

const (
	traceEvery = 64 // one operation in 64 is tagged

	// Buffers are preallocated so recording never allocates, sized for a
	// client that completes maxClientMops; a full buffer drops further
	// spans and counts them.
	maxClientMops = 30
)

// spanCap is how many spans one client can record in a round of plan p.
func spanCap(p plan) int {
	life := p.warmup + time.Duration(p.segments)*p.segment
	return int(maxClientMops*1e6*life.Seconds())/traceEvery + 1024
}

var traceEpoch = time.Now()

// now is the span clock: monotonic nanoseconds since process start.
func now() int64 { return int64(time.Since(traceEpoch)) }

// span is one recorded interval. parent indexes the same slice, -1 for
// a root.
type span struct {
	name       string
	start, end int64
	parent     int
	op         uint64 // id shared by every span of one operation
	client     int
	runLen     int // service spans: requests in the dispatched run
}

func (s span) dur() int64 { return s.end - s.start }

// half is one side's record of a tagged operation before the join.
type half struct {
	id         uint64
	start, end int64
	runLen     int   // dispatch side
	kind       uint8 // client side: the call kind
	routeEnd   int64 // client side, sharded-multi: end of the route child
}

// tracer owns one traced round's buffers.
type tracer struct {
	spanCap  int
	clients  []*clientTrace
	dispatch *tracedObject   // counter workloads
	shards   []*tracedObject // sharded-multi: one per shard
}

func newTracer(workload string, p plan) *tracer {
	t := &tracer{spanCap: spanCap(p)}
	for c := 0; c < clientsOf(workload); c++ {
		t.clients = append(t.clients, &clientTrace{
			client: c,
			spans:  make([]half, 0, t.spanCap),
		})
	}
	return t
}

// client returns client c's buffer; a nil tracer (tracing off) gives nil.
func (t *tracer) client(c int) *clientTrace {
	if t == nil {
		return nil
	}
	return t.clients[c]
}

// wrap is the traced pass's objectWrap.
func (t *tracer) wrap(obj core.Object) core.Object {
	w := &tracedObject{inner: obj}
	if _, isCounter := obj.(*counter); isCounter {
		w.tagged = true
		w.spans = make([]half, 0, len(t.clients)*t.spanCap)
		t.dispatch = w
	} else {
		// One shard's share of the runs, each of at least one request.
		w.spans = make([]half, 0, len(t.clients)*t.spanCap/2)
		t.shards = append(t.shards, w)
	}
	return w
}

// objects returns every wrapped object of the round.
func (t *tracer) objects() []*tracedObject {
	if t.dispatch != nil {
		return []*tracedObject{t.dispatch}
	}
	return t.shards
}

// clientTrace is one client's preallocated span buffer. At most one
// tagged operation per client is open at a time: tags are 64 operations
// apart and the deepest pipeline holds 8.
type clientTrace struct {
	client  int
	seq     uint64
	cur     half
	spans   []half
	dropped uint64
	routed  int // keeps the timed partitioner calls live
}

// begin opens a tagged operation and returns its non-zero span id.
func (c *clientTrace) begin() uint64 {
	c.seq++
	c.cur = half{id: uint64(c.client+1)<<40 | c.seq}
	c.cur.start = now()
	return c.cur.id
}

// beginRouted is begin for sharded-multi: it first times the
// partitioner over the call's keys, the route child span.
func (c *clientTrace) beginRouted(op genOp) uint64 {
	c.seq++
	c.cur = half{id: uint64(c.client+1)<<40 | c.seq, kind: op.kind}
	c.cur.start = now()
	for _, k := range op.keys {
		c.routed += ishard.Fibonacci(uint64(k), mapShards)
	}
	c.cur.routeEnd = now()
	return c.cur.id
}

// end closes the open tagged operation.
func (c *clientTrace) end(id uint64) {
	c.cur.end = now()
	if c.cur.id != id || len(c.spans) == cap(c.spans) {
		c.dropped++
		return
	}
	c.spans = append(c.spans, c.cur)
}

// tracedObject wraps the protected object. DispatchBatch runs in mutual
// exclusion, so its counters and buffer need no lock; the driver reads
// them only after the round's clients have exited and the executor is
// closed.
type tracedObject struct {
	inner   core.Object
	tagged  bool // requests carry span ids in Arg (counter workloads)
	runs    uint64
	reqs    uint64
	spans   []half
	dropped uint64
}

func (o *tracedObject) DispatchBatch(reqs []core.Req, results []uint64) {
	o.runs++
	o.reqs += uint64(len(reqs))
	sample := false
	if o.tagged {
		for i := range reqs {
			if reqs[i].Arg != 0 {
				sample = true
				break
			}
		}
	} else {
		sample = o.runs%traceEvery == 0
	}
	if !sample {
		o.inner.DispatchBatch(reqs, results)
		return
	}
	start := now()
	o.inner.DispatchBatch(reqs, results)
	end := now()
	h := half{start: start, end: end, runLen: len(reqs)}
	if !o.tagged {
		o.record(h)
		return
	}
	for i := range reqs {
		if h.id = reqs[i].Arg; h.id != 0 {
			o.record(h)
		}
	}
}

func (o *tracedObject) record(h half) {
	if len(o.spans) == cap(o.spans) {
		o.dropped++
		return
	}
	o.spans = append(o.spans, h)
}

// joined is the outcome of matching client halves to dispatch halves.
type joined struct {
	spans     []span
	unmatched int // halves with no partner (the other side dropped it, or it never dispatched)
}

// join matches each client half with the dispatch half carrying the same
// id and emits the op span with its three children. Halves without a
// partner are dropped and counted, never guessed at. Child boundaries
// are clamped into the op's interval, so clock reads taken on different
// cores cannot produce a negative child.
func join(clients [][]half, dispatch []half) joined {
	byID := make(map[uint64]half, len(dispatch))
	for _, d := range dispatch {
		byID[d.id] = d
	}
	var j joined
	for c, hs := range clients {
		for _, h := range hs {
			d, ok := byID[h.id]
			if !ok {
				j.unmatched++
				continue
			}
			delete(byID, h.id)
			ds, de := clamp(d.start, h.start, h.end), clamp(d.end, h.start, h.end)
			op := len(j.spans)
			j.spans = append(j.spans,
				span{name: "op", start: h.start, end: h.end, parent: -1, op: h.id, client: c},
				span{name: "queue_wait", start: h.start, end: ds, parent: op, op: h.id, client: c},
				span{name: "service", start: ds, end: de, parent: op, op: h.id, client: c, runLen: d.runLen},
				span{name: "reply_wake", start: de, end: h.end, parent: op, op: h.id, client: c},
			)
		}
	}
	j.unmatched += len(byID)
	return j
}

func clamp(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

var kindNames = map[uint8]string{kGet: "get", kPut: "put", kGetAll: "getall16", kMultiPut: "multiput16"}

// routedSpans turns sharded-multi's client halves into op spans named
// by call kind, each with its route child.
func routedSpans(clients [][]half) []span {
	var out []span
	for c, hs := range clients {
		for _, h := range hs {
			op := len(out)
			out = append(out,
				span{name: "op." + kindNames[h.kind], start: h.start, end: h.end, parent: -1, op: h.id, client: c},
				span{name: "route", start: h.start, end: h.routeEnd, parent: op, op: h.id, client: c},
			)
		}
	}
	return out
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// not counted twice).
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			p := spans[s.parent]
			lo, hi := clamp(s.start, p.start, p.end), clamp(s.end, p.start, p.end)
			if hi > lo {
				kids[s.parent] = append(kids[s.parent], [2]int64{lo, hi})
			}
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var cover, edge int64
		edge = s.start
		for _, k := range iv {
			if k[1] <= edge {
				continue
			}
			if k[0] > edge {
				edge = k[0]
			}
			cover += k[1] - edge
			edge = k[1]
		}
		self[i] = s.dur() - cover
	}
	return self
}

// percentileLadder are the percentiles the picker may report,
// ascending. It stops at 99 because the metrics are named p50 and p99.
var percentileLadder = []int{50, 90, 99}

// pickPercentile returns the highest percentile of the ladder that
// still has at least ten samples beyond it among n, or 0 when not even
// the median does.
func pickPercentile(n int) float64 {
	best := 0
	for _, p := range percentileLadder {
		if n*(100-p) >= 10*100 {
			best = p
		}
	}
	return float64(best)
}

// percentile reads the p-th percentile off an ascending slice
// (nearest-rank); 0 for an empty one.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)])
}

// tail is a distribution summary: the median, and the highest
// percentile the sample count supports (p99 when it has ten samples
// beyond it, a lower rung of the ladder otherwise).
type tail struct {
	n     int
	p50   float64
	high  float64 // value at percentile highP
	highP float64
}

func summarize(durs []int64) tail {
	sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
	t := tail{n: len(durs), p50: percentile(durs, 50)}
	if t.highP = pickPercentile(len(durs)); t.highP == 0 {
		t.highP = 50 // too few samples even for a median; the count says so
	}
	t.high = percentile(durs, t.highP)
	return t
}

// durations collects the durations of every span called name.
func durations(spans []span, name string) []int64 {
	var out []int64
	for _, s := range spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// traceLine is the JSONL form of one span.
type traceLine struct {
	Name         string `json:"name"`
	Start        int64  `json:"start_ns"`
	End          int64  `json:"end_ns"`
	Parent       string `json:"parent"`
	Op           uint64 `json:"op"`
	Workload     string `json:"workload"`
	Construction string `json:"construction"`
	Client       int    `json:"client"`
	RunLen       int    `json:"run_len,omitempty"`
}

// maxTraceOps bounds how many operations per construction are written
// out; the statistics use every span, the file is for reading.
const maxTraceOps = 4096

// writeSpans appends the first maxTraceOps operations of spans to w as
// JSONL. Children follow their parent, so cutting at a root keeps
// operations whole.
func writeSpans(w io.Writer, workload, construction string, spans []span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	roots := 0
	for _, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		} else if roots++; roots > maxTraceOps {
			break
		}
		if err := enc.Encode(traceLine{
			Name: s.name, Start: s.start, End: s.end, Parent: parent, Op: s.op,
			Workload: workload, Construction: construction, Client: s.client, RunLen: s.runLen,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
