package spin

import (
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

// TestLockLayout machine-verifies the padding of every lock structure:
// centralized locks round to whole cache lines so two locks (or a lock
// and neighbouring data) never false-share, and the MCS queue node each
// waiter spins on is a whole-line allocation.
func TestLockLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"TASLock":  unsafe.Sizeof(TASLock{}),
		"TTASLock": unsafe.Sizeof(TTASLock{}),
		"mcsNode":  unsafe.Sizeof(mcsNode{}),
	} {
		if !pad.Padded(size) {
			t.Errorf("%s is %d bytes, not a whole number of cache lines", name, size)
		}
	}
}
