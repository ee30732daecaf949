package spin

import (
	"testing"
	"unsafe"

	"hybsync/internal/pad"
)

// TestLockLayout machine-verifies the padding of every lock structure:
// centralized locks round to whole cache lines so two locks (or a lock
// and neighbouring data) never false-share, the ticket lock's dispenser
// and grant counters live on different lines, and the queue-lock nodes
// threads spin on are whole-line allocations.
func TestLockLayout(t *testing.T) {
	for name, size := range map[string]uintptr{
		"TASLock":    unsafe.Sizeof(TASLock{}),
		"TTASLock":   unsafe.Sizeof(TTASLock{}),
		"TicketLock": unsafe.Sizeof(TicketLock{}),
		"mcsNode":    unsafe.Sizeof(mcsNode{}),
		"clhNode":    unsafe.Sizeof(clhNode{}),
	} {
		if !pad.Padded(size) {
			t.Errorf("%s is %d bytes, not a whole number of cache lines", name, size)
		}
	}
	var tl TicketLock
	if pad.SameLine(unsafe.Offsetof(tl.next), unsafe.Offsetof(tl.owner)) {
		t.Error("TicketLock: next and owner share a cache line")
	}
}
