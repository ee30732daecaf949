package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// The live-executor registry backs the debug endpoint: benchmarks (and
// any embedder) register each armed executor's Telemetry under a
// human-readable label, and Entries snapshots them all. It parallels
// measure's live-cell slot — measure seeds both from the same
// tracking call — but lives here so the export layer needs no
// dependency on the benchmark harness.

type regEntry struct {
	label string
	t     *Telemetry
}

var (
	regMu  sync.Mutex
	regSeq uint64
	reg    = map[uint64]regEntry{}
)

// Register adds t to the live registry under label and returns the
// matching unregister function. A nil t registers nothing (the
// returned function is still safe to call), so callers can pass their
// possibly-disarmed telemetry straight through.
func Register(label string, t *Telemetry) (unregister func()) {
	if t == nil {
		return func() {}
	}
	regMu.Lock()
	regSeq++
	id := regSeq
	reg[id] = regEntry{label: label, t: t}
	regMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			regMu.Lock()
			delete(reg, id)
			regMu.Unlock()
		})
	}
}

// Entry is one live executor's registry view: its registration order,
// label and a fresh snapshot.
type Entry struct {
	ID    uint64   `json:"id"`
	Label string   `json:"label"`
	Snap  Snapshot `json:"snapshot"`
}

// Entries snapshots every live registered Telemetry, in registration
// order.
func Entries() []Entry {
	regMu.Lock()
	ids := make([]uint64, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	ents := make([]regEntry, len(ids))
	for i, id := range ids {
		ents[i] = reg[id]
	}
	regMu.Unlock()
	// Snapshot outside the lock: snapshots only touch the Telemetry
	// atomics, and a long shard walk must not block Register.
	out := make([]Entry, len(ids))
	for i, id := range ids {
		out[i] = Entry{ID: id, Label: ents[i].label, Snap: ents[i].t.Snapshot()}
	}
	return out
}

// condemned counts process-wide executor condemnations: executors
// poisoned from the outside after exceeding a deadline (the sweep
// runner's OnTimeout path), as opposed to poisons latched by a dispatch
// fault. It is process-global because condemnation happens where no
// per-executor Telemetry is in scope anymore — the executor has been
// abandoned.
var condemned atomic.Uint64

// NoteCondemned counts one externally condemned executor.
func NoteCondemned() { condemned.Add(1) }

// CondemnedCount returns the process-wide condemnation total.
func CondemnedCount() uint64 { return condemned.Load() }
