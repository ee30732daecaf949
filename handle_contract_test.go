// The handle-contract suite: one script (internal/handletest) run over
// every registered algorithm and over SyncHandle, from the one package
// where every construction is linked in. Since every NewHandle returns
// the same pipeline type over a construction-specific transport, what
// the script checks is the pipeline once and each transport's Run (and
// Next, where it owes) — TestOnePipelineType keeps it that way, and
// TestOneExecutorShell does the same for the executor side.
package hybsync_test

import (
	"reflect"
	"slices"
	"testing"

	"hybsync"
	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// owesContended names the constructions whose Submit returns, its
// completion owed, while another handle holds the critical section, so
// that a bounded wait on it times out: an MP-SERVER handle's demanded
// run is a message the parked server has not served, and a HybComb
// handle's registers with the holder's open round.
// A lock or CC-Synch handle defers too, but its demand acquires the lock
// or publishes the run's one chain cell and completes it, waiting out
// the holder instead of timing out.
var owesContended = []string{"mpserver", "hybcomb"}

// owesAlways reads the script's OwesAlways off a fresh handle of name:
// one Submit, uncontended, leaves its completion in flight.
func owesAlways(t *testing.T, name string) bool {
	ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return 0 }))
	if err != nil {
		t.Fatalf("NewObject(%q): %v", name, err)
	}
	defer ex.Close()
	h := hybsync.MustHandle(ex)
	defer h.Flush()
	if _, err := h.Submit(0, 0); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return h.(*core.Pipe).InFlight() == 1
}

func TestHandleContract(t *testing.T) {
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			handletest.Run(t, handletest.Subject{
				OwesContended: slices.Contains(owesContended, name),
				OwesAlways:    owesAlways(t, name),
				Open: func(t *testing.T, obj core.Object, queueCap int) *handletest.System {
					ex, err := hybsync.NewObject(name, obj, hybsync.WithMaxThreads(4), hybsync.WithQueueCap(queueCap))
					if err != nil {
						t.Fatalf("NewObject(%q): %v", name, err)
					}
					return &handletest.System{Ex: ex, Handle: func() core.Handle { return hybsync.MustHandle(ex) }}
				},
			})
		})
	}
	t.Run("SyncHandle", func(t *testing.T) {
		handletest.Run(t, handletest.Subject{
			Open: func(t *testing.T, obj core.Object, _ int) *handletest.System {
				return &handletest.System{Handle: func() core.Handle {
					return hybsync.SyncHandle(func(op, arg uint64) uint64 {
						var res [1]uint64
						obj.DispatchBatch([]core.Req{{Op: op, Arg: arg}}, res[:])
						return res[0]
					})
				}}
			},
		})
	})
}

// TestOnePipelineType: every registered algorithm's NewHandle, and
// SyncHandle, return the one pipeline type. A construction is a
// transport under core.Pipe; one that hand-rolls the Handle methods
// again escapes the contract suite's reach and fails here.
func TestOnePipelineType(t *testing.T) {
	check := func(t *testing.T, h hybsync.Handle) {
		t.Helper()
		if _, ok := h.(*core.Pipe); !ok {
			t.Errorf("handle is a %T, want *core.Pipe: implement core.Transport instead of core.Handle", h)
		}
	}
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return 0 }))
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			check(t, hybsync.MustHandle(ex))
		})
	}
	check(t, hybsync.SyncHandle(func(op, arg uint64) uint64 { return 0 }))
}

// TestOneExecutorShell: every registered algorithm's executor embeds
// the one core.Shell — admission (fault, closed, MaxThreads), the
// sealed flag and the telemetry wiring are written once. A construction
// that hand-rolls them again answers NewHandle in its own words, or
// forgets the bound, and fails here.
func TestOneExecutorShell(t *testing.T) {
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			ex, err := hybsync.NewObject(name, hybsync.Func(func(op, arg uint64) uint64 { return 0 }))
			if err != nil {
				t.Fatal(err)
			}
			defer ex.Close()
			typ := reflect.TypeOf(ex)
			if typ.Kind() == reflect.Pointer {
				typ = typ.Elem()
			}
			var f reflect.StructField
			if typ.Kind() == reflect.Struct {
				f, _ = typ.FieldByName("Shell")
			}
			if !f.Anonymous || f.Type != reflect.TypeOf(core.Shell{}) {
				t.Errorf("executor %v does not embed core.Shell: build NewHandle on Shell.admit and Close on Shell.seal", typ)
			}
		})
	}
}
