package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestHybridContractAcrossTransitions runs the handle-contract script
// (the one the root package runs over every algorithm) against the
// hybrid with a forced transition between every two steps, over both
// backends: tickets, Post discards, bounded waits, FIFO behind
// outstanding tickets, draining Close and poison completion must not
// care which mode each step ran in, nor that the handle's one window
// holds lock-mode and delegated tickets side by side.
func TestHybridContractAcrossTransitions(t *testing.T) {
	for _, backend := range []string{"hybcomb", "mpserver"} {
		t.Run(backend, func(t *testing.T) {
			handletest.Run(t, handletest.Subject{
				Open: func(t *testing.T, obj core.Object, queueCap int) *handletest.System {
					// A huge window disables the controller so the forced
					// transitions own the mode.
					o, err := core.BuildOptions(core.WithMaxThreads(4), core.WithQueueCap(queueCap),
						core.WithHybridBackend(backend), core.WithHybridWindow(1<<30))
					if err != nil {
						t.Fatal(err)
					}
					h, err := core.NewHybrid(obj, o)
					if err != nil {
						t.Fatal(err)
					}
					promote := false
					return &handletest.System{
						Ex:     h,
						Handle: func() core.Handle { return core.MustHandle(h) },
						Step: func() {
							promote = !promote
							core.ForceHybridMode(h, promote)
						},
					}
				},
			})
		})
	}
}
