package shard

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/telemetry"
)

// TestTelemetrySnapshotDedup: shards built from one Options share one
// *Telemetry — the router must merge it once (pointer identity), not
// once per shard, or every counter would be N-times-counted.
func TestTelemetrySnapshotDedup(t *testing.T) {
	tel := telemetry.NewSampled(1)
	r, err := NewObjectRouter(4, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }),
		nil, coreFactory("hybcomb", core.WithTelemetry(tel)))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, _ := r.NewHandle()
	const ops = 400
	for key := uint64(0); key < ops; key++ {
		if _, err := h.Apply(key, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap, ok := r.TelemetrySnapshot()
	if !ok {
		t.Fatal("router over telemetry-armed shards reported ok=false")
	}
	direct := tel.Snapshot()
	if snap.Latency.Count != direct.Latency.Count {
		t.Errorf("router latency count %d != direct %d (shared core double-counted?)",
			snap.Latency.Count, direct.Latency.Count)
	}
	if snap.RunLen.Sum != direct.RunLen.Sum {
		t.Errorf("router run-length sum %d != direct %d", snap.RunLen.Sum, direct.RunLen.Sum)
	}
	// Sanity on the content itself: every op went through a dispatch
	// run, so the run-length sum covers all ops exactly once.
	if snap.RunLen.Sum != ops {
		t.Errorf("run-length sum = %d, want %d (one request per op)", snap.RunLen.Sum, ops)
	}
}

// TestTelemetrySnapshotDistinct: shards armed with distinct cores
// merge additively.
func TestTelemetrySnapshotDistinct(t *testing.T) {
	tels := make([]*telemetry.Telemetry, 2)
	factory := func(shard int, obj core.Object) (core.Executor, error) {
		tels[shard] = telemetry.NewSampled(1)
		return core.NewObject("hybcomb", obj, core.WithTelemetry(tels[shard]))
	}
	r, err := NewObjectRouter(2, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }), nil, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, _ := r.NewHandle()
	const ops = 200
	for key := uint64(0); key < ops; key++ {
		if _, err := h.Apply(key, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap, ok := r.TelemetrySnapshot()
	if !ok {
		t.Fatal("router over telemetry-armed shards reported ok=false")
	}
	want := tels[0].Snapshot().Merge(tels[1].Snapshot())
	if snap.RunLen.Sum != want.RunLen.Sum || snap.RunLen.Sum != ops {
		t.Errorf("merged run-length sum = %d (pairwise %d), want %d",
			snap.RunLen.Sum, want.RunLen.Sum, ops)
	}
	if snap.Latency.Count != want.Latency.Count {
		t.Errorf("merged latency count = %d, want %d", snap.Latency.Count, want.Latency.Count)
	}
}

// TestTelemetrySnapshotDisarmed: a router over disarmed shards reports
// ok=false.
func TestTelemetrySnapshotDisarmed(t *testing.T) {
	r, err := NewObjectRouter(2, KeyedFunc(func(shard int, op, arg uint64) uint64 { return 0 }),
		nil, coreFactory("hybcomb"))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.TelemetrySnapshot(); ok {
		t.Fatal("disarmed router claimed a telemetry snapshot")
	}
}
