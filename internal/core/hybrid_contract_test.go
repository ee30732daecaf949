package core_test

import (
	"testing"

	"hybsync/internal/core"
	"hybsync/internal/handletest"
)

// TestHybridContractAcrossTransitions runs the handle-contract script
// (the one the root package runs over every algorithm) against the
// hybrid with a forced transition between every two steps: tickets,
// Post discards, bounded waits, FIFO behind outstanding tickets,
// draining Close and poison completion must not care which mode each
// step ran in, nor that the handle's one window holds lock-mode and
// delegated tickets side by side. The subtest is named for the
// delegation side of the edges.
func TestHybridContractAcrossTransitions(t *testing.T) {
	t.Run("hybcomb", func(t *testing.T) {
		handletest.Run(t, handletest.Subject{
			Open: func(t *testing.T, obj core.Object, queueCap int) *handletest.System {
				h := core.NewHybrid(obj, core.Options{MaxThreads: 4, QueueCap: queueCap})
				core.FreezeHybrid(h) // the forced transitions own the mode
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
