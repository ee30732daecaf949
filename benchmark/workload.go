package main

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/core"
	ishard "hybsync/internal/shard"
	"hybsync/object"
)

// The four workloads. Each exists because it makes a different part of
// the stack do the work (README.md "Workloads" has the full argument):
//
//   - solo-apply: one client, so run length is 1 and nothing contends —
//     the fixed per-operation path (ring send/recv + wake, ticket
//     bookkeeping, latch defer/recover, telemetry nil check) is all
//     there is.
//   - contended-apply: two clients on the same blocking call — the
//     combining round, the server drain, the MCS hand-off and the
//     hybrid's promotion only happen here. The paper's lock-vs-
//     delegation crossover sits between this workload and solo-apply.
//   - pipelined-window: the same layers driven through Submit/Wait/
//     Post/Flush — ticket banking, RecvBatch drains and the reply ring
//     dominate, so a blocking-Apply gain paid for by the pipeline
//     shows here.
//   - sharded-multi: the only workload that enters internal/shard
//     (route, lazy shard-handle lookup, occupancy counter, MultiApply's
//     per-call allocations), reads beside writes, single ops beside
//     batches.
const (
	wlSolo      = "solo-apply"
	wlContended = "contended-apply"
	wlWindow    = "pipelined-window"
	wlSharded   = "sharded-multi"
)

var workloadNames = []string{wlSolo, wlContended, wlWindow, wlSharded}

const (
	maxLocalWork = 50 // the paper's 0–50 iterations between calls
	windowDepth  = 8
	postEvery    = 64 // every 64th window is 8 × Post + Flush

	mapShards   = 4
	mapCapacity = 1 << 16
	mapKeys     = 1 << 15
	zipfTheta   = 0.99
	batchKeys   = 16
	// keyTableLen Zipf keys are drawn per client once per process and
	// cycled: an on-the-fly draw costs a math.Pow (~60 ns), as much as
	// a whole mcs-lock Get, and would turn the closed loop's think time
	// into the thing measured.
	keyTableLen = 1 << 18

	publishEvery = 16
)

func clientsOf(workload string) int {
	if workload == wlSolo {
		return 1
	}
	return 2
}

// Operation kinds a generator emits.
const (
	kApply uint8 = iota
	kSubmit
	kPost
	kGet
	kPut
	kGetAll
	kMultiPut
)

// genOp is one generated operation: what to call, on which keys, and
// how much local work follows it.
type genOp struct {
	kind uint8
	work uint8
	keys []uint32 // map kinds only; aliases the generator's key table
}

// opGen produces one client's operation stream. Everything that varies
// comes from the seed: the local-work draw, the op-mix choice and (via
// the pre-drawn table) the Zipf keys. The program under test never
// sees the seed, only the operations.
type opGen struct {
	workload string
	rng      harness.XorShift
	n        uint64   // operations generated so far
	keys     []uint32 // sharded-multi: this client's Zipf key table
	pos      int
}

// mix folds the run seed, client and round into one stream seed
// (splitmix64 finalizer, so neighbouring inputs give unrelated streams).
func mix(seed uint64, client, round int) uint64 {
	z := seed + 0x9E3779B97F4A7C15*uint64(client*1000+round+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (g *opGen) next() genOp {
	r := g.rng.Next()
	op := genOp{work: uint8((r >> 32) % (maxLocalWork + 1))}
	switch g.workload {
	case wlSolo, wlContended:
		op.kind = kApply
	case wlWindow:
		op.kind = kSubmit
		if (g.n/windowDepth)%postEvery == postEvery-1 {
			op.kind = kPost
		}
	case wlSharded:
		nkeys := 1
		switch m := r % 100; {
		case m < 70:
			op.kind = kGet
		case m < 80:
			op.kind = kPut
		case m < 96:
			op.kind, nkeys = kGetAll, batchKeys
		default:
			op.kind, nkeys = kMultiPut, batchKeys
		}
		if g.pos+nkeys > len(g.keys) {
			g.pos = 0
		}
		op.keys = g.keys[g.pos : g.pos+nkeys]
		g.pos += nkeys
	}
	g.n++
	return op
}

// streamHash folds the first n generated operations of a stream into
// one value (FNV-1a over kind, work and keys): the reproducibility
// test's witness that a seed fixes the inputs.
func streamHash(g *opGen, n int) uint64 {
	h := uint64(0xcbf29ce484222325)
	add := func(v uint64) { h = (h ^ v) * 0x100000001b3 }
	for i := 0; i < n; i++ {
		op := g.next()
		add(uint64(op.kind))
		add(uint64(op.work))
		for _, k := range op.keys {
			add(uint64(k))
		}
	}
	return h
}

// inputs is everything generated from the seed once per process and
// shared by every round: the per-client Zipf key tables and the map's
// prefill set. Building it is generator work, not set-up of the program
// under test, so it is not part of setup_s.
type inputs struct {
	seed    uint64
	keys    [][]uint32 // per client
	prefill []uint64   // bitmap over mapKeys: keys present before the clients start
}

func newInputs(seed uint64, workload string) (*inputs, error) {
	in := &inputs{seed: seed}
	if workload != wlSharded {
		return in, nil
	}
	z, err := harness.NewZipf(mapKeys, zipfTheta, 1)
	if err != nil {
		return nil, err
	}
	for c := 0; c < clientsOf(workload); c++ {
		zc := z.Reseed(mix(seed, c, -1))
		tab := make([]uint32, keyTableLen)
		for i := range tab {
			tab[i] = uint32(zc.Next())
		}
		in.keys = append(in.keys, tab)
	}
	// Prefill about half the key space, chosen by the seed.
	in.prefill = make([]uint64, mapKeys/64)
	rng := harness.NewXorShift(mix(seed, -1, -1))
	for i := range in.prefill {
		in.prefill[i] = rng.Next()
	}
	return in, nil
}

func (in *inputs) gen(workload string, client, round int) opGen {
	g := opGen{workload: workload, rng: harness.NewXorShift(mix(in.seed, client, round))}
	if workload == wlSharded {
		g.keys = in.keys[client]
		g.pos = int(g.rng.Next() % uint64(len(g.keys)))
	}
	return g
}

// counter is the benchmark's own protected object for the three
// single-executor workloads: a fetch-and-increment whose result is the
// new value, so results are unique across handles and strictly
// increasing per handle. The argument is ignored by the object; the
// traced pass uses it to carry a span id through the construction.
type counter struct{ v uint64 }

func (c *counter) DispatchBatch(reqs []core.Req, results []uint64) {
	v := c.v
	for i := range reqs {
		v++
		results[i] = v
	}
	c.v = v
}

// mapVal is f(key): the only value ever stored under key, so every
// read must return it or EmptyVal.
func mapVal(key uint32) uint32 { return key*0x9E3779B1 ^ 0x5BD1E995 }

// client is one closed-loop load generator: it issues its next call
// only after the previous one returned, does the drawn local work, and
// publishes its completed-operation count every publishEvery ops for
// the driver to read at segment boundaries.
type client interface {
	// loop runs until stop is set and returns the operations completed
	// and the oracle violations seen.
	loop(stop *atomic.Bool, pub *atomic.Uint64) (ops, failed uint64)
}

// system is one freshly built instance of the program under test, for
// one round: its clients, and a finish step that closes it and runs
// the end-of-round oracle against the operations the clients counted.
type system struct {
	clients []client
	finish  func(ops uint64) (failed uint64, err error)
	exec    any         // the executor (counter workloads), for its stats interfaces
	m       *ishard.Map // sharded-multi only
}

// objectWrap interposes on the protected object: nil in the end-to-end
// pass, the span recorder in the traced pass, a fault injector in the
// oracle test.
type objectWrap func(core.Object) core.Object

// build constructs workload's system over algo. It is what setup_s
// times: executor construction, handle creation and (sharded-multi)
// the map prefill.
func build(workload, algo string, in *inputs, round int, wrap objectWrap, tr *tracer, opts ...hybsync.Option) (*system, error) {
	if workload == wlSharded {
		return buildMap(algo, in, round, wrap, tr, opts...)
	}
	ctr := &counter{}
	var obj core.Object = ctr
	if wrap != nil {
		obj = wrap(obj)
	}
	ex, err := hybsync.NewObject(algo, obj, opts...)
	if err != nil {
		return nil, err
	}
	sys := &system{exec: ex}
	for c := 0; c < clientsOf(workload); c++ {
		h, err := ex.NewHandle()
		if err != nil {
			ex.Close()
			return nil, err
		}
		cc := counterClient{h: h, gen: in.gen(workload, c, round), tr: tr.client(c)}
		if workload == wlWindow {
			sys.clients = append(sys.clients, &windowClient{counterClient: cc})
		} else {
			sys.clients = append(sys.clients, &applyClient{counterClient: cc})
		}
	}
	sys.finish = func(ops uint64) (uint64, error) {
		if err := ex.Close(); err != nil {
			return 0, fmt.Errorf("%s: Close: %w", algo, err)
		}
		// Oracle: the object executed exactly the operations counted.
		return absDiff(ctr.v, ops), nil
	}
	return sys, nil
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

type counterClient struct {
	h   core.Handle
	gen opGen
	tr  *clientTrace // nil outside the traced pass
}

// applyClient drives blocking Handle.Apply.
type applyClient struct{ counterClient }

func (c *applyClient) loop(stop *atomic.Bool, pub *atomic.Uint64) (n, failed uint64) {
	var last uint64
	for !stop.Load() {
		op := c.gen.next()
		var id uint64
		if c.tr != nil && n%traceEvery == 0 {
			id = c.tr.begin()
		}
		v := c.h.Apply(0, id)
		if id != 0 {
			c.tr.end(id)
		}
		// Oracle: results strictly increase per handle.
		if v <= last {
			failed++
		}
		last = v
		n++
		if n%publishEvery == 0 {
			pub.Store(n)
		}
		harness.LocalWork(uint64(op.work))
	}
	pub.Store(n)
	if c.h.Err() != nil {
		failed++
	}
	return n, failed
}

// windowClient keeps a depth-8 sliding Submit/Wait window; every 64th
// window is 8 × Post + Flush instead. An operation is counted when its
// Wait (or the Flush covering its Post) returns.
type windowClient struct{ counterClient }

func (c *windowClient) loop(stop *atomic.Bool, pub *atomic.Uint64) (n, failed uint64) {
	type slot struct {
		t  core.Ticket
		id uint64
	}
	var (
		win         [windowDepth]slot
		head, count int
		posted      uint64
		last        uint64
		issued      uint64
	)
	wait := func() {
		s := win[head]
		v := c.h.Wait(s.t)
		if s.id != 0 {
			c.tr.end(s.id)
		}
		head = (head + 1) % windowDepth
		count--
		// Oracle: results strictly increase per handle, in Wait order.
		if v <= last {
			failed++
		}
		last = v
		n++
	}
	for !stop.Load() {
		op := c.gen.next()
		before := n
		if op.kind == kPost {
			if err := c.h.Post(0, 0); err != nil {
				failed++
			}
			if posted++; posted == windowDepth {
				c.h.Flush()
				n += posted
				posted = 0
			}
		} else {
			if count == windowDepth {
				wait()
			}
			var id uint64
			if c.tr != nil && issued%traceEvery == 0 {
				id = c.tr.begin()
			}
			t, err := c.h.Submit(0, id)
			if err != nil {
				failed++
			} else {
				win[(head+count)%windowDepth] = slot{t, id}
				count++
			}
		}
		issued++
		if n/publishEvery != before/publishEvery {
			pub.Store(n)
		}
		harness.LocalWork(uint64(op.work))
	}
	// Drain in-worker, while the peer may still be running: with
	// CC-Synch an unwaited cell can hold the combiner duty the peer's
	// Wait is spinning on (see harness.RunNativeDrain).
	c.h.Flush()
	n += posted
	for count > 0 {
		wait()
	}
	pub.Store(n)
	if c.h.Err() != nil {
		failed++
	}
	return n, failed
}

// buildMap constructs sharded-multi's system: object.NewMap over algo,
// prefilled through a handle. With an object wrap the same map is built
// through internal/shard directly, because only its ExecFactory lets
// the benchmark interpose on each shard's object.
func buildMap(algo string, in *inputs, round int, wrap objectWrap, tr *tracer, opts ...hybsync.Option) (*system, error) {
	var (
		m   *ishard.Map
		err error
	)
	if wrap == nil {
		m, err = object.NewMap(algo, mapShards, mapCapacity, opts...)
	} else {
		m, err = ishard.NewMap(mapShards, mapCapacity, nil, func(_ int, obj core.Object) (core.Executor, error) {
			return hybsync.NewObject(algo, wrap(obj), opts...)
		})
	}
	if err != nil {
		return nil, err
	}
	sys := &system{m: m}
	present := append([]uint64(nil), in.prefill...)
	for c := 0; c < clientsOf(wlSharded); c++ {
		h, err := m.NewHandle()
		if err != nil {
			m.Close()
			return nil, err
		}
		if c == 0 {
			for k := uint32(0); k < mapKeys; k++ {
				if present[k/64]&(1<<(k%64)) == 0 {
					continue
				}
				if v, err := h.Put(k, mapVal(k)); err != nil || v != ishard.EmptyVal {
					m.Close()
					return nil, fmt.Errorf("%s: prefill Put(%d) = %#x, %v", algo, k, v, err)
				}
			}
		}
		sys.clients = append(sys.clients, &mapClient{
			h: h, gen: in.gen(wlSharded, c, round), tr: tr.client(c),
			put: make([]uint64, mapKeys/64),
		})
	}
	sys.finish = func(uint64) (uint64, error) {
		if err := m.Close(); err != nil {
			return 0, fmt.Errorf("%s: Close: %w", algo, err)
		}
		// Oracle: the map holds exactly the keys prefilled or put.
		var want uint64
		for i, w := range present {
			for _, c := range sys.clients {
				w |= c.(*mapClient).put[i]
			}
			want += uint64(bits.OnesCount64(w))
		}
		return absDiff(m.Len(), want), nil
	}
	return sys, nil
}

// mapClient drives the sharded map's call mix. Operations are counted
// per key, so a GetAll(16) is 16 operations.
type mapClient struct {
	h   *ishard.MapHandle
	gen opGen
	tr  *clientTrace
	put []uint64 // bitmap of keys this client has put
}

func (c *mapClient) loop(stop *atomic.Bool, pub *atomic.Uint64) (n, failed uint64) {
	var (
		vals  [batchKeys]uint32
		calls uint64
	)
	// Oracle: every read returns f(key) or EmptyVal; so does every
	// previous value a Put hands back (the map never fills: 1<<15 keys
	// over 1<<16 slots).
	check := func(key uint32, v uint64) {
		if v != uint64(mapVal(key)) && v != ishard.EmptyVal {
			failed++
		}
	}
	for !stop.Load() {
		op := c.gen.next()
		var id uint64
		if c.tr != nil && calls%traceEvery == 0 {
			id = c.tr.beginRouted(op)
		}
		var (
			v   uint64
			vs  []uint64
			err error
		)
		switch op.kind {
		case kGet:
			v, err = c.h.Get(op.keys[0])
		case kPut:
			v, err = c.h.Put(op.keys[0], mapVal(op.keys[0]))
		case kGetAll:
			vs, err = c.h.GetAll(op.keys)
		case kMultiPut:
			for i, k := range op.keys {
				vals[i] = mapVal(k)
			}
			vs, err = c.h.MultiPut(op.keys, vals[:len(op.keys)])
		}
		if id != 0 {
			c.tr.end(id)
		}
		switch {
		case err != nil:
			failed += uint64(len(op.keys))
		case vs != nil:
			for i, k := range op.keys {
				check(k, vs[i])
			}
		default:
			check(op.keys[0], v)
		}
		if op.kind == kPut || op.kind == kMultiPut {
			for _, k := range op.keys {
				c.put[k/64] |= 1 << (k % 64)
			}
		}
		calls++
		before := n
		n += uint64(len(op.keys))
		if n/publishEvery != before/publishEvery {
			pub.Store(n)
		}
		harness.LocalWork(uint64(op.work))
	}
	pub.Store(n)
	return n, failed
}
