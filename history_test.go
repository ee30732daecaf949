package hybsync_test

import (
	"testing"

	"hybsync"
	"hybsync/internal/core"
	"hybsync/internal/historytest"
)

// TestHistoryRealTime checks every construction's counter history in
// real time, across handles, on each of the Handle's paths.
func TestHistoryRealTime(t *testing.T) {
	for _, name := range hybsync.Algorithms() {
		t.Run(name, func(t *testing.T) {
			historytest.Run(t, func(t *testing.T, obj core.Object, handles int) core.Executor {
				ex, err := hybsync.NewObject(name, obj, hybsync.WithMaxThreads(handles))
				if err != nil {
					t.Fatalf("NewObject(%q): %v", name, err)
				}
				return ex
			}, 4, 5000)
		})
	}
}
