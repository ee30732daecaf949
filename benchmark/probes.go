package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hybsync"
	"hybsync/harness"
	"hybsync/internal/backoff"
	"hybsync/internal/core"
	"hybsync/internal/mpq"
	ishard "hybsync/internal/shard"
	"hybsync/internal/spin"
	"hybsync/internal/telemetry"
)

// The isolated probes time each layer's public functions alone, away
// from any workload. Each probe reports the median of repeats timings;
// a timing covers calls calls of a sub-microsecond function and
// proportionally fewer of a slower one (a goroutine hand-off, a sleep),
// so that no probe runs much longer than 100 ms per repeat.

// probeScale sizes the probes: 1e6 calls × 5 repeats for the real run,
// far less for the smoke test.
type probeScale struct{ calls, repeats int }

var fullProbes = probeScale{calls: 1_000_000, repeats: 5}

// perCall returns the median over the repeats of body(n)'s wall time
// per call.
func (s probeScale) perCall(n int, body func(n int)) float64 {
	return s.perCallTimed(n, func(n int) int64 {
		t0 := now()
		body(n)
		return now() - t0
	})
}

// perCallTimed is perCall for a body that times part of itself and
// returns the nanoseconds spent there.
func (s probeScale) perCallTimed(n int, body func(n int) int64) float64 {
	if n < 1 {
		n = 1
	}
	var samples []float64
	for r := 0; r < s.repeats; r++ {
		samples = append(samples, float64(body(n))/float64(n))
	}
	return median(samples)
}

// Package-level so the compiler can neither devirtualize the calls nor
// drop their results.
var (
	probeObject   core.Object = &counter{}
	probeRecorder *telemetry.Recorder
	probeSink     atomic.Uint64
)

// runProbes measures every workload-independent per-layer metric.
func runProbes(s probeScale, seed uint64, m map[string]float64) error {
	probeMPQ(s, m)
	probeBackoff(s, m)
	probeCore(s, m)
	probeTelemetry(s, m)
	probeSpin(s, m)
	probeHarness(s, m)
	return probeShard(s, seed, m)
}

func probeMPQ(s probeScale, m map[string]float64) {
	var sink uint64
	sendRecv := func(q mpq.Queue) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				q.Send(mpq.Word(uint64(i)))
				sink += q.Recv().W[0]
			}
		}
	}
	m["mpq.spsc_sendrecv_ns"] = s.perCall(s.calls, sendRecv(mpq.NewSpsc(39)))
	m["mpq.mpsc_sendrecv_ns"] = s.perCall(s.calls, sendRecv(mpq.NewMpsc(39)))

	// RecvBatch alone: the 32 sends that fill the ring are not timed.
	batchQ, buf := mpq.NewMpsc(39), make([]mpq.Msg, 32)
	m["mpq.mpsc_recvbatch32_ns_per_msg"] = s.perCallTimed(s.calls, func(n int) int64 {
		var spent int64
		for i := 0; i < n; i += len(buf) {
			for j := range buf {
				batchQ.Send(mpq.Word(uint64(j)))
			}
			t0 := now()
			got := batchQ.RecvBatch(buf)
			spent += now() - t0
			for got < len(buf) { // a blocking RecvBatch may return short
				got += batchQ.RecvBatch(buf[got:])
			}
		}
		return spent
	})

	// One round trip between two goroutines over two rings: the
	// cross-core wake-up MP-SERVER pays per blocking call.
	ping, pong := mpq.NewSpsc(39), mpq.NewSpsc(39)
	m["mpq.spsc_pingpong_ns"] = s.perCall(s.calls/4, func(n int) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				pong.Send(ping.Recv())
			}
		}()
		for i := 0; i < n; i++ {
			ping.Send(mpq.Word(uint64(i)))
			sink += pong.Recv().W[0]
		}
		<-done
	})

	tq := mpq.NewSpsc(39)
	tk := mpq.NewTicketed(tq)
	m["mpq.ticketed_fifo_ns"] = s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			pos := tk.Issue()
			tq.Send(mpq.Word(uint64(i)))
			sink += tk.WaitFor(pos).W[0]
		}
	})
	// Waiting newest-first forces every message but the last through
	// the adapter's out-of-order buffer.
	m["mpq.ticketed_reverse8_ns"] = s.perCall(s.calls, func(n int) {
		var pos [8]uint64
		for i := 0; i < n; i += len(pos) {
			for j := range pos {
				pos[j] = tk.Issue()
				tq.Send(mpq.Word(uint64(j)))
			}
			for j := len(pos) - 1; j >= 0; j-- {
				sink += tk.WaitFor(pos[j]).W[0]
			}
		}
	})
	probeSink.Add(sink)
}

func probeBackoff(s probeScale, m map[string]float64) {
	m["backoff.spin_step_ns"] = s.perCall(s.calls, func(n int) {
		var b backoff.Backoff
		for i := 0; i < n; i++ {
			if i%32 == 0 {
				b.Reset() // stay inside the pure-spin window
			}
			b.Wait()
		}
	})
	m["backoff.yield_step_ns"] = s.perCall(s.calls/4, func(n int) {
		b := backoff.Yielding()
		for i := 0; i < n; i++ {
			if i%512 == 0 {
				b.Reset() // stay inside the yield window
			}
			b.Wait()
		}
	})
	// The first sleep step: escalate a fresh waiter through its spin
	// and yield windows untimed, then time the next Wait.
	const escalate = 1024
	m["backoff.sleep_step_us"] = s.perCallTimed(s.calls/5000, func(n int) int64 {
		var spent int64
		for i := 0; i < n; i++ {
			var b backoff.Backoff
			for j := 0; j < escalate; j++ {
				b.Wait()
			}
			t0 := now()
			b.Wait()
			spent += now() - t0
		}
		return spent
	}) / 1e3
	// Flag flip → waiter observes it: two goroutines hand a flag back
	// and forth, each waiting with a fresh Backoff; a round trip is two
	// hand-offs.
	m["backoff.handoff_ns"] = s.perCall(s.calls/4, func(n int) {
		var turn atomic.Uint32
		await := func(want uint32) {
			var b backoff.Backoff
			for turn.Load() != want {
				b.Wait()
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < n; i++ {
				await(1)
				turn.Store(0)
			}
		}()
		for i := 0; i < n; i++ {
			turn.Store(1)
			await(0)
		}
		<-done
	}) / 2
}

func probeCore(s probeScale, m map[string]float64) {
	var (
		latch core.PoisonLatch
		reqs  [1]core.Req
		res   [1]uint64
	)
	m["core.latch_dispatch_ns"] = s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			latch.Dispatch(probeObject, reqs[:], res[:])
		}
	})
	m["core.bare_dispatch_ns"] = s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			probeObject.DispatchBatch(reqs[:], res[:])
		}
	})
	var im core.Immediate
	m["core.immediate_ticket_ns"] = s.perCall(s.calls, func(n int) {
		var sink uint64
		for i := 0; i < n; i++ {
			sink += im.Take(im.Complete(uint64(i)))
		}
		probeSink.Add(sink)
	})
}

func probeTelemetry(s probeScale, m map[string]float64) {
	sample := func(n int) {
		var hits uint64
		for i := 0; i < n; i++ {
			if probeRecorder.Sample() {
				hits++
			}
		}
		probeSink.Add(hits)
	}
	probeRecorder = nil // the disarmed state: one nil check per call
	m["telemetry.sample_disarmed_ns"] = s.perCall(s.calls, sample)
	probeRecorder = telemetry.New().Recorder()
	m["telemetry.sample_armed_ns"] = s.perCall(s.calls, sample)
	start := time.Now()
	m["telemetry.latency_record_ns"] = s.perCall(s.calls/4, func(n int) {
		for i := 0; i < n; i++ {
			probeRecorder.Latency(start)
		}
	})
}

func probeSpin(s probeScale, m map[string]float64) {
	lock := &spin.MCSLock{}
	own := lock.NewMCSHandle()
	m["spin.mcs_uncontended_ns"] = s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			own.Lock()
			own.Unlock()
		}
	})
	// Two goroutines fighting for the lock: time per acquisition.
	var shared uint64
	m["spin.mcs_handoff_ns"] = s.perCall(s.calls/2, func(n int) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := lock.NewMCSHandle()
				for i := 0; i < n/2; i++ {
					h.Lock()
					shared++
					h.Unlock()
				}
			}()
		}
		wg.Wait()
	})
	probeSink.Add(shared)
}

func probeHarness(s probeScale, m map[string]float64) {
	rng := harness.NewXorShift(1)
	m["harness.localwork_ns"] = s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			harness.LocalWork(rng.Next() % (maxLocalWork + 1))
		}
	})
	m["harness.timer_pair_ns"] = s.perCall(s.calls/4, func(n int) {
		var sink int64
		for i := 0; i < n; i++ {
			a := now()
			sink += now() - a
		}
		probeSink.Add(uint64(sink))
	})
}

// probeAlgo is the construction under the shard probes: the cheapest
// one, so that the shard layer's own cost is what shows.
const probeAlgo = "mcs-lock"

func probeShard(s probeScale, seed uint64, m map[string]float64) error {
	factory := func(_ int, obj core.Object) (core.Executor, error) {
		return hybsync.NewObject(probeAlgo, obj)
	}
	keyed := ishard.KeyedFunc(func(_ int, _, arg uint64) uint64 { return arg })
	r4, err := ishard.NewObjectRouter(mapShards, keyed, nil, factory)
	if err != nil {
		return err
	}
	defer r4.Close()
	m["shard.route_ns"] = s.perCall(s.calls, func(n int) {
		var sink int
		for i := 0; i < n; i++ {
			sink += r4.ShardFor(uint64(i))
		}
		probeSink.Add(uint64(sink))
	})

	// What the router adds to one blocking call: a 1-shard router's
	// Apply against the same executor's bare Apply.
	r1, err := ishard.NewObjectRouter(1, keyed, nil, factory)
	if err != nil {
		return err
	}
	defer r1.Close()
	rh, err := r1.NewHandle()
	if err != nil {
		return err
	}
	routed := s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			rh.Apply(uint64(i), 0, 0)
		}
	})
	bare, err := hybsync.NewObject(probeAlgo, &counter{})
	if err != nil {
		return err
	}
	defer bare.Close()
	bh, err := bare.NewHandle()
	if err != nil {
		return err
	}
	m["shard.router_overhead_ns"] = routed - s.perCall(s.calls, func(n int) {
		for i := 0; i < n; i++ {
			bh.Apply(0, 0)
		}
	})

	// The map's four call kinds on a quiet, prefilled map, each call
	// timed on its own, keys drawn Zipf from the seed.
	in, err := newInputs(seed, wlSharded)
	if err != nil {
		return err
	}
	sys, err := buildMap(probeAlgo, in, 0, nil, nil)
	if err != nil {
		return err
	}
	defer sys.m.Close()
	mh, err := sys.m.NewHandle()
	if err != nil {
		return err
	}
	keys := in.keys[0]
	var vals [batchKeys]uint32
	timeKind := func(nkeys int, call func(ks []uint32) error) (float64, error) {
		calls := s.calls / 10 / nkeys * s.repeats
		if calls < 1 {
			calls = 1
		}
		durs := make([]int64, 0, calls)
		for i, pos := 0, 0; i < calls; i, pos = i+1, (pos+nkeys)%(len(keys)-nkeys) {
			t0 := now()
			if err := call(keys[pos : pos+nkeys]); err != nil {
				return 0, err
			}
			durs = append(durs, now()-t0)
		}
		return summarize(durs).p50 / float64(nkeys), nil
	}
	for _, k := range []struct {
		name  string
		nkeys int
		call  func(ks []uint32) error
	}{
		{"shard.get_ns_p50", 1, func(ks []uint32) error { _, err := mh.Get(ks[0]); return err }},
		{"shard.put_ns_p50", 1, func(ks []uint32) error { _, err := mh.Put(ks[0], mapVal(ks[0])); return err }},
		{"shard.getall16_ns_per_key_p50", batchKeys, func(ks []uint32) error { _, err := mh.GetAll(ks); return err }},
		{"shard.multiput16_ns_per_key_p50", batchKeys, func(ks []uint32) error {
			for i, key := range ks {
				vals[i] = mapVal(key)
			}
			_, err := mh.MultiPut(ks, vals[:len(ks)])
			return err
		}},
	} {
		v, err := timeKind(k.nkeys, k.call)
		if err != nil {
			return err
		}
		m[k.name] = v
	}

	const allocCalls = 1000
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocCalls; i++ {
		if _, err := mh.GetAll(keys[i*batchKeys : (i+1)*batchKeys]); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&ms1)
	m["shard.multiapply_allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / allocCalls

	// The skew the Zipf keys put on the four shards over all of the
	// calls above.
	occ := sys.m.Occupancy()
	if lo := slices.Min(occ); lo > 0 {
		m["shard.occupancy_max_over_min"] = float64(slices.Max(occ)) / float64(lo)
	}
	return nil
}

// applyBatch32 times Handle.ApplyBatch on a 32-request batch against
// the counter, per request, and checks the results.
func applyBatch32(s probeScale, algo string) (nsPerReq float64, failed uint64, err error) {
	ctr := &counter{}
	ex, err := hybsync.NewObject(algo, ctr)
	if err != nil {
		return 0, 0, err
	}
	defer ex.Close()
	h, err := ex.NewHandle()
	if err != nil {
		return 0, 0, err
	}
	var (
		reqs [32]core.Req
		res  [32]uint64
		last uint64
	)
	nsPerReq = s.perCall(s.calls/4, func(n int) {
		for i := 0; i < n; i += len(reqs) {
			h.ApplyBatch(reqs[:], res[:])
			for _, v := range res {
				if v <= last {
					failed++
				}
				last = v
			}
		}
	})
	return nsPerReq, failed, h.Err()
}

// mutexSystem is the host-speed reference: the blocking-apply loop over
// a sync.Mutex counter instead of a construction.
func mutexSystem(workload string, in *inputs) *system {
	var (
		mu sync.Mutex
		v  uint64
	)
	sys := &system{}
	for c := 0; c < clientsOf(workload); c++ {
		h := hybsync.SyncHandle(func(_, _ uint64) uint64 {
			mu.Lock()
			v++
			r := v
			mu.Unlock()
			return r
		})
		sys.clients = append(sys.clients, &applyClient{counterClient{h: h, gen: in.gen(wlContended, c, 0)}})
	}
	sys.finish = func(ops uint64) (uint64, error) { return absDiff(v, ops), nil }
	return sys
}
