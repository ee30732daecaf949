package spin

import (
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

// TestLockLayout machine-verifies the padding of the MCS queue node
// each waiter spins on: a whole-line allocation, so one waiter's flag
// never shares a line with a neighbour's.
func TestLockLayout(t *testing.T) {
	if size := unsafe.Sizeof(mcsNode{}); !pad.Padded(size) {
		t.Errorf("mcsNode is %d bytes, not a whole number of cache lines", size)
	}
}
